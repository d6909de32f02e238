/**
 * @file
 * Figure 9: critical-path breakdown (fetch / alu exec / load exec /
 * load mem / commit) for the baseline, ME+CF, and full RENO, on a
 * selection of benchmarks from each suite (the paper plots 8-9 per
 * suite).
 *
 * Paper shape targets: MediaBench is markedly more ALU-critical than
 * SPECint; SPECint is more load/memory-critical; RENO shrinks the
 * exec components and often grows the relative fetch component.
 */
#include "bench_util.hpp"

using namespace reno;
using namespace reno::bench;

namespace
{

std::vector<NamedConfig>
figureConfigs()
{
    const CoreParams machine = CoreParams::fourWide();
    return {
        {"BASE", withReno(machine, RenoConfig::baseline())},
        {"ME+CF", withReno(machine, RenoConfig::meCf())},
        {"RENO", withReno(machine, RenoConfig::full())},
    };
}

void
declareSelection(sweep::Campaign &campaign,
                 const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        for (const NamedConfig &cfg : figureConfigs()) {
            campaign.add(workloadByName(name), cfg, "",
                         /*want_cpa=*/true);
        }
    }
}

void
printSelection(const sweep::CampaignResults &results,
               const std::vector<std::string> &names)
{
    TextTable t;
    t.header({"benchmark", "config", "fetch%", "alu%", "load%",
              "mem%", "commit%"});
    for (const std::string &name : names) {
        for (const NamedConfig &cfg : figureConfigs()) {
            const auto b =
                results.get(name, cfg.name).cpaBreakdown();
            t.row({name, cfg.name, fmtDouble(b[0] * 100, 1),
                   fmtDouble(b[1] * 100, 1), fmtDouble(b[2] * 100, 1),
                   fmtDouble(b[3] * 100, 1),
                   fmtDouble(b[4] * 100, 1)});
        }
    }
    t.print();
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Figure 9: critical-path breakdown",
           "RENO TR MS-CIS-04-28 / ISCA 2005, Figure 9");

    // The paper's Figure 9 selections: crafty, eon.k, gap, gzip,
    // parser, perl.s, vortex, vpr.r / adpcm.de, epic, g721.en,
    // gsm.de, jpg.de, mesa.m, mesa.t, mpg2.en, pegw.en.
    const std::vector<std::string> spec_sel = {
        "crafty", "eon.k", "gap", "gzip", "parser", "perl.s",
        "vortex", "vpr.r"};
    const std::vector<std::string> media_sel = {
        "adpcm.dec", "epic", "g721.enc", "gsm.dec", "jpeg.dec",
        "mesa.m", "mesa.t", "mpeg2.enc", "pegw.enc"};

    sweep::Campaign campaign;
    declareSelection(campaign, spec_sel);
    declareSelection(campaign, media_sel);
    const sweep::CampaignResults results =
        campaign.run(sweep::parseCampaignArgs(argc, argv));

    std::printf("\nSPECint-like selection:\n");
    printSelection(results, spec_sel);
    std::printf("\nMediaBench-like selection:\n");
    printSelection(results, media_sel);
    return 0;
}
