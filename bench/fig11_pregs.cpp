/**
 * @file
 * Figure 11 (top): RENO compensating for physical register file
 * reductions. Performance of {96, 112, 128, 160} physical registers
 * under BASE, ME+CF, and full RENO, normalized to the 160-register
 * RENO-less baseline (= 100).
 *
 * Paper shape targets: ME+CF alone compensates for a reduction from
 * 160 to 112 registers; adding CSE+RA tolerates 96.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

int
main(int argc, char **argv)
{
    banner("Figure 11 (top): RENO vs physical register file size",
           "RENO TR MS-CIS-04-28 / ISCA 2005, Figure 11 top");

    const std::vector<std::pair<std::string, RenoConfig>> configs = {
        {"BASE", RenoConfig::baseline()},
        {"CF+ME", RenoConfig::meCf()},
        {"RA+CSE", RenoConfig::full()},
    };
    const std::vector<unsigned> sizes = {96, 112, 128, 160};

    // Reference (the 160-preg RENO-less default) plus the full
    // config x size cross-product, as one deduplicated campaign: the
    // 160-preg BASE jobs are content-identical to the reference.
    sweep::Campaign campaign;
    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        for (const Workload *w : workloads) {
            campaign.add(*w, {"ref", CoreParams{}});
            for (const auto &[cfg_name, reno_cfg] : configs) {
                for (const unsigned size : sizes) {
                    CoreParams p;
                    p.numPregs = size;
                    p.reno = reno_cfg;
                    campaign.add(*w, {cfg_name, p},
                                 strprintf("%u", size));
                }
            }
        }
    }
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        TextTable t;
        std::vector<std::string> header{"config"};
        for (const unsigned s : sizes)
            header.push_back(strprintf("%u pregs", s));
        t.header(header);

        for (const auto &[cfg_name, reno_cfg] : configs) {
            std::vector<std::string> row{cfg_name};
            for (const unsigned size : sizes) {
                std::vector<double> rel;
                for (const Workload *w : workloads) {
                    const std::uint64_t ref =
                        results.get(w->name, "ref").sim.cycles;
                    const std::uint64_t cyc =
                        results.get(w->name, cfg_name,
                                    strprintf("%u", size)).sim.cycles;
                    rel.push_back(100.0 * double(ref) / double(cyc));
                }
                row.push_back(fmtDouble(amean(rel), 1));
            }
            t.row(row);
        }
        std::printf("\n%s (performance, 160-preg baseline = 100):\n",
                    suite_name.c_str());
        t.print();
    }
    return 0;
}
