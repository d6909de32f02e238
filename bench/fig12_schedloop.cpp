/**
 * @file
 * Figure 12: RENO with a 2-cycle wakeup/select scheduling loop.
 * Performance of the 1-cycle and 2-cycle schedulers under BASE, CF+ME
 * and full RENO, normalized to the 1-cycle RENO-less baseline (=100).
 *
 * Paper shape targets: a 2-cycle loop costs the baseline ~7% (SPEC)
 * and ~11% (MediaBench); RENO compensates for the loss on SPEC and
 * even gains ~2.5% on MediaBench, by collapsing single-cycle
 * operations out of the dataflow graph rather than fusing them.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

int
main(int argc, char **argv)
{
    banner("Figure 12: RENO with a 2-cycle wakeup-select loop",
           "RENO TR MS-CIS-04-28 / ISCA 2005, Figure 12");

    const std::vector<std::pair<std::string, RenoConfig>> configs = {
        {"BASE", RenoConfig::baseline()},
        {"CF+ME", RenoConfig::meCf()},
        {"RA+CSE", RenoConfig::full()},
    };

    // The 1-cycle BASE jobs are content-identical to the reference
    // runs; the engine simulates them once.
    sweep::Campaign campaign;
    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        for (const Workload *w : workloads) {
            campaign.add(*w, {"ref", CoreParams::fourWide()});
            for (const auto &[cfg_name, reno_cfg] : configs) {
                for (const unsigned sched : {1u, 2u}) {
                    CoreParams p;
                    p.schedLoop = sched;
                    p.reno = reno_cfg;
                    campaign.add(*w, {cfg_name, p},
                                 strprintf("%uc", sched));
                }
            }
        }
    }
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        TextTable t;
        t.header({"config", "1-cycle", "2-cycle"});

        for (const auto &[cfg_name, reno_cfg] : configs) {
            std::vector<std::string> row{cfg_name};
            for (const unsigned sched : {1u, 2u}) {
                std::vector<double> rel;
                for (const Workload *w : workloads) {
                    const std::uint64_t ref =
                        results.get(w->name, "ref").sim.cycles;
                    const std::uint64_t cyc =
                        results.get(w->name, cfg_name,
                                    strprintf("%uc", sched))
                            .sim.cycles;
                    rel.push_back(100.0 * double(ref) / double(cyc));
                }
                row.push_back(fmtDouble(amean(rel), 1));
            }
            t.row(row);
        }
        std::printf("\n%s (performance, 1-cycle baseline = 100):\n",
                    suite_name.c_str());
        t.print();
    }
    return 0;
}
