/**
 * @file
 * Ablation (paper section 3.3): what if fused operations are never
 * free? The paper assumes 3-input carry-save adders make add-add
 * fusion zero-cycle and predicts that charging every fused operation
 * an extra cycle would cost RENO_CF only 20-25% of its relative
 * advantage (1-2% absolute).
 *
 * Three configurations per suite: BASE, ME+CF with free add-add
 * fusion, ME+CF with 1-cycle fusion everywhere.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

int
main(int argc, char **argv)
{
    banner("Ablation: 3-input-adder (free) vs 2-cycle fusion",
           "RENO TR MS-CIS-04-28 / ISCA 2005, section 3.3 claim");

    CoreParams free_p;
    free_p.reno = RenoConfig::meCf();
    CoreParams slow_p = free_p;
    slow_p.freeAddAddFusion = false;
    const std::vector<NamedConfig> configs = {
        {"BASE", CoreParams::fourWide()},
        {"free", free_p},
        {"slow", slow_p},
    };

    sweep::Campaign campaign;
    for (const auto &[suite_name, workloads] : benchmarkSuites())
        campaign.addCross(workloads, configs);
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        TextTable t;
        t.header({"benchmark", "CF free-fusion", "CF slow-fusion",
                  "benefit kept%"});
        std::vector<double> mean_free, mean_slow;
        for (const Workload *w : workloads) {
            const std::uint64_t base =
                results.get(w->name, "BASE").sim.cycles;
            const double s_free = speedupPercent(
                base, results.get(w->name, "free").sim.cycles);
            const double s_slow = speedupPercent(
                base, results.get(w->name, "slow").sim.cycles);

            mean_free.push_back(s_free);
            mean_slow.push_back(s_slow);
            const double kept =
                s_free > 0.01 ? 100.0 * s_slow / s_free : 100.0;
            t.row({w->name, fmtDouble(s_free, 1), fmtDouble(s_slow, 1),
                   fmtDouble(kept, 0)});
        }
        const double kept = amean(mean_free) > 0.01
            ? 100.0 * amean(mean_slow) / amean(mean_free) : 100.0;
        t.row({"amean", fmtDouble(amean(mean_free), 1),
               fmtDouble(amean(mean_slow), 1), fmtDouble(kept, 0)});
        std::printf("\n%s (%% speedup over baseline; paper predicts "
                    "75-80%% of the benefit kept):\n",
                    suite_name.c_str());
        t.print();
    }
    return 0;
}
