/**
 * @file
 * Figure 8 (bottom): percentage speedup over the RENO-less baseline
 * for the cumulative configurations ME, ME+CF and full RENO, on the
 * 4-wide and 6-wide machines.
 *
 * Paper shape targets: full RENO averages +8% on SPECint and +13% on
 * MediaBench at 4-wide; lower (6% / 11%) at 6-wide; ME and ME+CF
 * alone deliver roughly half the benefit.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

int
main(int argc, char **argv)
{
    banner("Figure 8 (bottom): % speedup over baseline",
           "RENO TR MS-CIS-04-28 / ISCA 2005, Figure 8 bottom");

    // Declare the whole figure as one campaign: (4w, 6w) x build-up
    // x every workload. The baseline runs once per workload per
    // width; the engine deduplicates and parallelizes the rest.
    sweep::Campaign campaign;
    for (const unsigned width : {4u, 6u}) {
        const CoreParams machine = width == 6 ? CoreParams::sixWide()
                                              : CoreParams::fourWide();
        const std::string tag = strprintf("%uw", width);
        for (const auto &[suite_name, workloads] : benchmarkSuites())
            campaign.addCross(workloads, renoBuildup(machine), tag);
    }
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    for (const unsigned width : {4u, 6u}) {
        const CoreParams machine = width == 6 ? CoreParams::sixWide()
                                              : CoreParams::fourWide();
        const auto configs = renoBuildup(machine);
        const std::string tag = strprintf("%uw", width);
        std::printf("\n--- %u-wide machine ---\n", width);
        for (const auto &[suite_name, workloads] : benchmarkSuites()) {
            TextTable t;
            t.header({"benchmark", "ME", "ME+CF", "RENO"});
            std::vector<double> mean[3];
            for (const Workload *w : workloads) {
                const std::uint64_t base =
                    results.get(w->name, configs[0].name, tag)
                        .sim.cycles;
                std::vector<std::string> row{w->name};
                for (int c = 1; c <= 3; ++c) {
                    const std::uint64_t cyc =
                        results.get(w->name, configs[c].name, tag)
                            .sim.cycles;
                    const double s = speedupPercent(base, cyc);
                    mean[c - 1].push_back(s);
                    row.push_back(fmtDouble(s, 1));
                }
                t.row(row);
            }
            t.row({"amean", fmtDouble(amean(mean[0]), 1),
                   fmtDouble(amean(mean[1]), 1),
                   fmtDouble(amean(mean[2]), 1)});
            std::printf("\n%s (%% speedup):\n", suite_name.c_str());
            t.print();
        }
    }
    return 0;
}
