/**
 * @file
 * Ablation (paper section 3.2, DESIGN.md section 6.3): RENO never
 * eliminates two *dependent* instructions renamed in the same cycle;
 * this keeps the output-selection mux linear rather than quadratic in
 * the rename width. The paper argues such pairs are rare (a compiler
 * would have folded them statically) but notes they become somewhat
 * more common at 6-wide rename.
 *
 * This bench counts the folds lost to the restriction (group-dependence
 * cancels) per 1000 retired instructions at 4- and 6-wide, alongside
 * the total elimination rate, making the Figure 8 "small drop from 4-
 * to 6-wide" directly measurable.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

namespace
{

double
perMille(std::uint64_t n, std::uint64_t retired)
{
    return retired ? 1000.0 * double(n) / double(retired) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Ablation: dependent-elimination-per-cycle restriction",
           "RENO TR MS-CIS-04-28 / ISCA 2005, sections 3.2 and 4.2");

    CoreParams p4 = CoreParams::fourWide();
    p4.reno = RenoConfig::full();
    CoreParams p6 = CoreParams::sixWide();
    p6.reno = RenoConfig::full();
    const std::vector<NamedConfig> configs = {
        {"4w", p4},
        {"6w", p6},
    };

    sweep::Campaign campaign;
    for (const auto &[suite_name, workloads] : benchmarkSuites())
        campaign.addCross(workloads, configs);
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        TextTable t;
        t.header({"benchmark", "4w elim%", "4w cancels/1k",
                  "6w elim%", "6w cancels/1k"});
        std::vector<double> c4s, c6s;
        for (const Workload *w : workloads) {
            const SimResult r4 = results.get(w->name, "4w").sim;
            const SimResult r6 = results.get(w->name, "6w").sim;

            const double c4 = perMille(r4.groupDepCancels, r4.retired);
            const double c6 = perMille(r6.groupDepCancels, r6.retired);
            c4s.push_back(c4);
            c6s.push_back(c6);
            t.row({w->name,
                   fmtDouble(r4.elimFraction() * 100, 1),
                   fmtDouble(c4, 2),
                   fmtDouble(r6.elimFraction() * 100, 1),
                   fmtDouble(c6, 2)});
        }
        t.row({"amean", "", fmtDouble(amean(c4s), 2), "",
               fmtDouble(amean(c6s), 2)});
        std::printf("\n%s (the 6-wide machine should lose slightly "
                    "more folds to the restriction):\n",
                    suite_name.c_str());
        t.print();
    }
    return 0;
}
