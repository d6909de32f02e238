/**
 * @file
 * Figure 8 (top): fraction of dynamic instructions eliminated or
 * folded by each RENO optimization - moves (RENO_ME), register-
 * immediate additions (RENO_CF) and loads (RENO_CSE+RA) - on the
 * 4-wide and 6-wide machines, for both suites.
 *
 * Paper shape targets: ~4% ME, 12% (SPEC) / 16% (MediaBench) CF,
 * 5% / 3.3% CSE+RA; total ~22%; slightly lower at 6-wide because the
 * dependent-elimination-per-cycle restriction binds more often.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

int
main(int argc, char **argv)
{
    banner("Figure 8 (top): % dynamic instructions eliminated",
           "RENO TR MS-CIS-04-28 / ISCA 2005, Figure 8 top");

    sweep::Campaign campaign;
    for (const unsigned width : {4u, 6u}) {
        CoreParams base = width == 6 ? CoreParams::sixWide()
                                     : CoreParams::fourWide();
        base.reno = RenoConfig::full();
        const std::string tag = strprintf("%uw", width);
        for (const auto &[suite_name, workloads] : benchmarkSuites())
            campaign.addCross(workloads, {{"RENO", base}}, tag);
    }
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    for (const unsigned width : {4u, 6u}) {
        const std::string tag = strprintf("%uw", width);
        std::printf("\n--- %u-wide machine ---\n", width);
        for (const auto &[suite_name, workloads] : benchmarkSuites()) {
            TextTable t;
            t.header({"benchmark", "ME%", "CF%", "CSE+RA%", "total%"});
            std::vector<double> me, cf, csera, total;
            for (const Workload *w : workloads) {
                const SimResult r =
                    results.get(w->name, "RENO", tag).sim;
                const double m =
                    r.elimFraction(ElimKind::Move) * 100;
                const double c =
                    r.elimFraction(ElimKind::Fold) * 100;
                const double l = (r.elimFraction(ElimKind::Cse) +
                                  r.elimFraction(ElimKind::Ra)) * 100;
                me.push_back(m);
                cf.push_back(c);
                csera.push_back(l);
                total.push_back(m + c + l);
                t.row({w->name, fmtDouble(m, 1), fmtDouble(c, 1),
                       fmtDouble(l, 1), fmtDouble(m + c + l, 1)});
            }
            t.row({"amean", fmtDouble(amean(me), 1),
                   fmtDouble(amean(cf), 1), fmtDouble(amean(csera), 1),
                   fmtDouble(amean(total), 1)});
            std::printf("\n%s:\n", suite_name.c_str());
            t.print();
        }
    }
    return 0;
}
