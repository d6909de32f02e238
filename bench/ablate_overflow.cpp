/**
 * @file
 * Ablation (paper section 3.2, DESIGN.md section 6.4): the renaming
 * pipeline checks displacement overflow *conservatively*, comparing
 * the top two bits of the instruction immediate and the current
 * map-table displacement, because the exact 16-bit sum is not
 * available until the second rename stage. A conservative check
 * cancels some folds that an exact check would keep.
 *
 * This bench quantifies the cost: folds canceled, CF elimination rate
 * and speedup under the conservative check vs an exact 16-bit check.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

int
main(int argc, char **argv)
{
    banner("Ablation: conservative vs exact displacement-overflow check",
           "RENO TR MS-CIS-04-28 / ISCA 2005, section 3.2");

    CoreParams cons_p;
    cons_p.reno = RenoConfig::meCf();
    CoreParams exact_p = cons_p;
    exact_p.reno.exactOverflowCheck = true;
    const std::vector<NamedConfig> configs = {
        {"BASE", CoreParams::fourWide()},
        {"cons", cons_p},
        {"exact", exact_p},
    };

    sweep::Campaign campaign;
    for (const auto &[suite_name, workloads] : benchmarkSuites())
        campaign.addCross(workloads, configs);
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        TextTable t;
        t.header({"benchmark", "cons CF%", "exact CF%", "cons cancels",
                  "exact cancels", "cons speedup", "exact speedup"});
        std::vector<double> mean_cons, mean_exact;
        for (const Workload *w : workloads) {
            const std::uint64_t base =
                results.get(w->name, "BASE").sim.cycles;
            const SimResult cons = results.get(w->name, "cons").sim;
            const SimResult exact = results.get(w->name, "exact").sim;

            const double s_cons = speedupPercent(base, cons.cycles);
            const double s_exact = speedupPercent(base, exact.cycles);
            mean_cons.push_back(s_cons);
            mean_exact.push_back(s_exact);

            t.row({w->name,
                   fmtDouble(cons.elimFraction(ElimKind::Fold) * 100, 1),
                   fmtDouble(exact.elimFraction(ElimKind::Fold) * 100, 1),
                   std::to_string(cons.overflowCancels),
                   std::to_string(exact.overflowCancels),
                   fmtDouble(s_cons, 1), fmtDouble(s_exact, 1)});
        }
        t.row({"amean", "", "", "", "", fmtDouble(amean(mean_cons), 1),
               fmtDouble(amean(mean_exact), 1)});
        std::printf("\n%s (conservative check should cancel more folds "
                    "but cost almost no performance):\n",
                    suite_name.c_str());
        t.print();
    }
    return 0;
}
