/**
 * @file
 * reno-sweep: the campaign-engine command-line driver. Runs an ad-hoc
 * cross-product sweep (suites/workloads x named configurations) or one
 * of the repo's named figure campaigns, on all host cores, with the
 * content-addressed result cache, and reports through the pluggable
 * table/JSON/CSV reporters.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "harness/selection.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "sweep/campaign.hpp"
#include "sweep/reporter.hpp"

using namespace reno;

int
main(int argc, char **argv)
{
    Selection selection;
    bool want_cpa = false;
    bool all_stats = false;
    std::string cpi_json;
    std::string cpi_html;
    std::string pipetrace_path;
    sweep::CampaignOptions opts;
    obs::ObsOptions obs_opts;

    cli::Parser parser;
    selection.addFlags(parser);
    parser.flag("--cpa", "critical-path analysis per job (single-core "
                "only)", &want_cpa);
    parser.flag("--all-stats", "report every named SimResult counter",
                &all_stats);
    parser.text("--cpi-json FILE",
                "write per-job CPI stacks + the campaign aggregate",
                &cpi_json);
    parser.text("--cpi-html FILE",
                "write a self-contained HTML CPI report", &cpi_html);
    sweep::addCampaignFlags(parser, &opts);
    obs::addObsFlags(parser, &obs_opts);
    obs::addObservationFlags(parser, &opts.observe, &pipetrace_path);
    parser.parse(argc, argv);
    if (selection.printListing())
        return 0;
    // Stacks are collected exactly when a CPI report asks for them.
    opts.observe.cpiStack = !cpi_json.empty() || !cpi_html.empty();
    if (opts.observe.hotTopN > 0 && !opts.observe.cpiStack)
        fatal("--profile-hot requires --cpi-json or --cpi-html");
    // Opened before simulating, so a bad path costs no campaign.
    std::FILE *pipetrace = pipetrace_path.empty()
                               ? stderr
                               : std::fopen(pipetrace_path.c_str(), "w");
    if (!pipetrace)
        fatal("--pipetrace: cannot write '%s'", pipetrace_path.c_str());

    const std::vector<const Workload *> workloads =
        selection.workloads();
    const std::vector<NamedConfig> configs = selection.configs();
    const obs::Session obs_session(obs_opts);

    sweep::Campaign campaign;
    for (const Workload *w : workloads) {
        for (const NamedConfig &cfg : configs)
            campaign.add(*w, cfg, "", want_cpa);
    }

    const sweep::CampaignResults results = campaign.run(opts);
    const std::string rendered =
        sweep::renderResults(results, selection.format(), all_stats);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);

    if (opts.observe.pipetrace) {
        const std::string traces = sweep::renderPipeTraces(results);
        std::fwrite(traces.data(), 1, traces.size(), pipetrace);
    }
    if (pipetrace != stderr)
        std::fclose(pipetrace);

    if (opts.observe.cpiStack) {
        // Per-job CPI stacks + hotspots. Only jobs that actually
        // simulated under accounting carry a stack; a cache-hit job
        // (replayed from a profiling-agnostic cache entry) does not,
        // and the report says so rather than inventing zeros.
        std::vector<obs::CpiRow> rows;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results.at(i).observed.cpi.valid)
                continue;
            const sweep::Job &job = results.job(i);
            obs::CpiRow row;
            row.workload = job.workload->name;
            row.config = job.config.name;
            row.cores = job.config.params.sys.numCores;
            row.report = results.at(i).observed.cpi;
            rows.push_back(std::move(row));
        }
        obs::MetricsRegistry::instance()
            .counter("cpi.jobs_with_stacks")
            .inc(rows.size());
        if (rows.size() < results.size())
            std::fprintf(stderr,
                         "[sweep] cpi: %zu of %zu jobs carry stacks "
                         "(cache hits replay without profiling)\n",
                         rows.size(), results.size());
        const auto write = [](const std::string &path,
                              const std::string &text) {
            if (!writeFile(path, text))
                fatal("cannot write '%s'", path.c_str());
        };
        if (!cpi_json.empty())
            write(cpi_json, obs::renderCpiJson(rows));
        if (!cpi_html.empty())
            write(cpi_html, obs::renderCpiHtml(rows));
    }
    return 0;
}
