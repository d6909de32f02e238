/**
 * @file
 * Figure 11 (bottom): RENO compensating for issue-width reductions.
 * Performance of the i2t2 (2 integer / 2 total), i2t3 and i3t4 issue
 * configurations under BASE, CF+ME and full RENO, normalized to the
 * full-width (3 integer / 6 total) RENO-less baseline (= 100).
 *
 * Paper shape targets: CF+ME compensates for losing one issue slot
 * and an ALU (i3t4 -> even with baseline or better); full RENO on
 * 3-wide beats the 4-wide baseline on SPEC; a 50% issue cut (i2t2)
 * cannot be fully recovered but comes within several percent.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

int
main(int argc, char **argv)
{
    banner("Figure 11 (bottom): RENO vs issue width",
           "RENO TR MS-CIS-04-28 / ISCA 2005, Figure 11 bottom");

    const std::vector<std::pair<std::string, RenoConfig>> configs = {
        {"BASE", RenoConfig::baseline()},
        {"CF+ME", RenoConfig::meCf()},
        {"RA+CSE", RenoConfig::full()},
    };
    const std::vector<std::pair<std::string, CoreParams>> widths = {
        {"i2t2", CoreParams::issueReduced(2, 2)},
        {"i2t3", CoreParams::issueReduced(2, 3)},
        {"i3t4", CoreParams::issueReduced(3, 4)},
    };

    sweep::Campaign campaign;
    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        for (const Workload *w : workloads) {
            campaign.add(*w, {"ref", CoreParams::fourWide()});
            for (const auto &[cfg_name, reno_cfg] : configs) {
                for (const auto &[width_name, width_params] : widths) {
                    CoreParams p = width_params;
                    p.reno = reno_cfg;
                    campaign.add(*w, {cfg_name, p}, width_name);
                }
            }
        }
    }
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        TextTable t;
        t.header({"config", "i2t2", "i2t3", "i3t4"});

        for (const auto &[cfg_name, reno_cfg] : configs) {
            std::vector<std::string> row{cfg_name};
            for (const auto &[width_name, width_params] : widths) {
                std::vector<double> rel;
                for (const Workload *w : workloads) {
                    const std::uint64_t ref =
                        results.get(w->name, "ref").sim.cycles;
                    const std::uint64_t cyc =
                        results.get(w->name, cfg_name, width_name)
                            .sim.cycles;
                    rel.push_back(100.0 * double(ref) / double(cyc));
                }
                row.push_back(fmtDouble(amean(rel), 1));
            }
            t.row(row);
        }
        std::printf("\n%s (performance, full-width baseline = 100):\n",
                    suite_name.c_str());
        t.print();
    }
    return 0;
}
