/**
 * @file
 * Figure 10: dividing labor between RENO_CF and RENO_CSE+RA. Four
 * configurations per benchmark:
 *
 *   RENO           - CF handles ALU ops, loads-only IT (the default)
 *   RENO+FullInteg - CF plus a full (ALU + load) IT
 *   FullInteg      - register integration alone (no CF)
 *   LoadsInteg     - loads-only integration, no CF
 *
 * Plus the IT bandwidth comparison the paper quotes: the full-IT
 * configuration needs ~70% more table accesses than RENO.
 *
 * Paper shape targets: RENO ~= RENO+FullInteg (within ~0.5%), RENO
 * beats FullInteg by ~3% (SPEC) / ~6% (MediaBench), and beats
 * LoadsInteg by more.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

int
main(int argc, char **argv)
{
    banner("Figure 10: cooperation between RENO_CF and RENO_CSE+RA",
           "RENO TR MS-CIS-04-28 / ISCA 2005, Figure 10");

    const CoreParams machine = CoreParams::fourWide();
    const auto configs = divisionOfLabor(machine);
    const NamedConfig baseline{"BASE",
                               withReno(machine,
                                        RenoConfig::baseline())};

    sweep::Campaign campaign;
    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        campaign.addCross(workloads, {baseline});
        campaign.addCross(workloads, configs);
    }
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    std::uint64_t it_accesses_reno = 0, it_accesses_fullit = 0;

    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        TextTable t;
        t.header({"benchmark", "RENO", "RENO+FullInteg", "FullInteg",
                  "LoadsInteg"});
        std::vector<double> mean[4];
        for (const Workload *w : workloads) {
            const std::uint64_t base =
                results.get(w->name, "BASE").sim.cycles;
            std::vector<std::string> row{w->name};
            for (size_t c = 0; c < configs.size(); ++c) {
                const SimResult r =
                    results.get(w->name, configs[c].name).sim;
                const double s = speedupPercent(base, r.cycles);
                mean[c].push_back(s);
                row.push_back(fmtDouble(s, 1));
                if (c == 0)
                    it_accesses_reno += r.itAccesses;
                if (c == 1)
                    it_accesses_fullit += r.itAccesses;
            }
            t.row(row);
        }
        t.row({"amean", fmtDouble(amean(mean[0]), 1),
               fmtDouble(amean(mean[1]), 1),
               fmtDouble(amean(mean[2]), 1),
               fmtDouble(amean(mean[3]), 1)});
        std::printf("\n%s (%% speedup over baseline):\n",
                    suite_name.c_str());
        t.print();
    }

    std::printf("\nIT bandwidth: full-IT configuration performs "
                "%.0f%% more table accesses than RENO "
                "(paper: ~70%% more)\n",
                it_accesses_reno
                    ? (double(it_accesses_fullit) /
                           double(it_accesses_reno) - 1.0) * 100.0
                    : 0.0);
    return 0;
}
