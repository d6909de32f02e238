/**
 * @file
 * Ablation (paper section 2.4): integration-table size and policy.
 * The loads-only division of labor halves the required IT size and
 * cuts its bandwidth while keeping peak collapsing rates. This sweep
 * measures elimination rate, IT accesses and speedup across table
 * sizes for the loads-only and full-IT policies.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

namespace
{

std::string
policyTag(bool loads_only, unsigned entries)
{
    return strprintf("%s/%u", loads_only ? "loads" : "full", entries);
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Ablation: integration table size and policy",
           "RENO TR MS-CIS-04-28 / ISCA 2005, section 2.4 claims");

    const std::vector<unsigned> sizes = {128, 256, 512, 1024};

    // One campaign for the whole sweep: per workload, one baseline
    // plus the 2-policy x 4-size cross-product.
    sweep::Campaign campaign;
    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        for (const Workload *w : workloads) {
            campaign.add(*w, {"BASE", CoreParams::fourWide()});
            for (const bool loads_only : {true, false}) {
                for (const unsigned entries : sizes) {
                    CoreParams p;
                    p.reno = loads_only ? RenoConfig::full()
                                        : RenoConfig::fullIt();
                    p.reno.it.entries = entries;
                    campaign.add(*w, {"IT", p},
                                 policyTag(loads_only, entries));
                }
            }
        }
    }
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    for (const auto &[suite_name, workloads] : benchmarkSuites()) {
        TextTable t;
        t.header({"policy", "IT entries", "speedup%", "loads elim%",
                  "IT accesses/1k insts"});
        for (const bool loads_only : {true, false}) {
            for (const unsigned entries : sizes) {
                std::vector<double> speedups, load_elims, accesses;
                for (const Workload *w : workloads) {
                    const std::uint64_t base =
                        results.get(w->name, "BASE").sim.cycles;
                    const SimResult r =
                        results.get(w->name, "IT",
                                    policyTag(loads_only, entries))
                            .sim;
                    speedups.push_back(
                        speedupPercent(base, r.cycles));
                    load_elims.push_back(
                        (r.elimFraction(ElimKind::Cse) +
                         r.elimFraction(ElimKind::Ra)) * 100);
                    accesses.push_back(1000.0 * double(r.itAccesses) /
                                       double(r.retired));
                }
                t.row({loads_only ? "loads-only" : "full",
                       strprintf("%u", entries),
                       fmtDouble(amean(speedups), 1),
                       fmtDouble(amean(load_elims), 1),
                       fmtDouble(amean(accesses), 0)});
            }
        }
        std::printf("\n%s:\n", suite_name.c_str());
        t.print();
    }
    return 0;
}
