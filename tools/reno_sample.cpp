/**
 * @file
 * reno-sample: the sampled-simulation command-line driver. Estimates
 * whole-program IPC from checkpointed interval samples -- each
 * (workload, config, interval) is an independent campaign job, so
 * intervals parallelize across the worker pool and hit the
 * content-addressed result cache -- and, with --validate, runs the
 * full detailed simulations too and reports the per-workload IPC
 * error (the CI accuracy gate).
 */
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "harness/selection.hpp"
#include "obs/session.hpp"
#include "sample/sampler.hpp"
#include "sweep/campaign.hpp"
#include "sweep/reporter.hpp"

using namespace reno;

int
main(int argc, char **argv)
{
    Selection selection;
    bool validate = false;
    double max_error = 0.0;
    std::string cpi_json;
    sample::SampleOptions options;
    obs::ObsOptions obs_opts;

    cli::Parser parser;
    selection.addFlags(parser);
    parser.count("--sample N", "measured intervals per program "
                 "(default 10)", &options.plan.intervals);
    parser.count("--warmup W", "detailed warmup insts per interval "
                 "(default 2000)", &options.plan.warmupInsts, 0);
    parser.count("--measure M", "measured insts per interval (default "
                 "5000)", &options.plan.measureInsts);
    parser.count("--cold C", "exactly-measured cold stratum (default: "
                 "total/10)", &options.plan.coldInsts);
    parser.flag("--validate", "also run full simulations; report "
                "per-workload sampled-vs-full IPC error", &validate);
    parser.add("--max-error PCT", cli::Value::Required,
               "exit 1 if any |error| exceeds PCT (requires "
               "--validate)",
               [&max_error](const std::string &v) {
                   const auto [end, ec] = std::from_chars(
                       v.data(), v.data() + v.size(), max_error);
                   if (ec != std::errc() || end != v.data() + v.size() ||
                       !std::isfinite(max_error) || max_error <= 0.0)
                       fatal("--max-error expects a finite positive "
                             "number, got '%s'",
                             v.c_str());
               });
    parser.text("--cpi-json FILE",
                "write extrapolated whole-program CPI stacks (requires "
                "--cpi-stack)",
                &cpi_json);
    sweep::addCampaignFlags(parser, &options.campaign);
    obs::addObsFlags(parser, &obs_opts);
    parser.parse(argc, argv);
    if (selection.printListing())
        return 0;
    if (max_error > 0.0 && !validate)
        fatal("--max-error requires --validate");

    const std::vector<const Workload *> workloads =
        selection.workloads();
    const std::vector<NamedConfig> configs = selection.configs();

    const obs::Session obs_session(obs_opts);
    if (!cpi_json.empty() && !obs_opts.cpiStack)
        fatal("--cpi-json requires --cpi-stack");
    if (!cpi_json.empty() && validate)
        fatal("--cpi-json cannot be combined with --validate");

    if (validate) {
        const sample::ValidationReport report =
            sample::validateSampling(workloads, configs, options);
        const std::string rendered =
            sample::renderValidation(report, selection.format());
        std::fwrite(rendered.data(), 1, rendered.size(), stdout);
        std::fprintf(stderr,
                     "[sample] max |IPC error| %.2f%%; full %.2fs "
                     "(%zu sims), sampled %.2fs (%zu sims), "
                     "speedup %.1fx\n",
                     report.maxAbsErrorPct, report.fullSeconds,
                     report.fullStats.simulated,
                     report.sampledSeconds,
                     report.sampledStats.simulated,
                     report.speedup());
        if (max_error > 0.0 && report.maxAbsErrorPct > max_error) {
            std::fprintf(stderr,
                         "[sample] FAIL: max |IPC error| %.2f%% "
                         "exceeds the --max-error bound %.2f%%\n",
                         report.maxAbsErrorPct, max_error);
            return 1;
        }
        return 0;
    }

    const sample::SampledCampaign sampled =
        sample::runSampledCampaign(workloads, configs, options);
    const std::string rendered =
        sample::renderSampled(sampled, selection.format());
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);

    if (!cpi_json.empty()) {
        // Extrapolated stacks; a run loses its stack when any of its
        // measured windows replayed from a cache entry (the cache is
        // profiling-agnostic), and such runs are skipped.
        std::vector<obs::SampledCpiRow> rows;
        for (const sample::SampledRun &run : sampled.runs) {
            if (!run.est.hasCpi)
                continue;
            obs::SampledCpiRow row;
            row.workload = run.workload->name;
            row.config = run.config;
            row.cores = run.numCores;
            row.est = run.est.cpiEst;
            rows.push_back(std::move(row));
        }
        if (rows.size() < sampled.runs.size())
            std::fprintf(stderr,
                         "[sample] cpi: %zu of %zu runs carry stacks "
                         "(cache hits replay without profiling)\n",
                         rows.size(), sampled.runs.size());
        const std::string doc = obs::renderSampledCpiJson(rows);
        std::FILE *f = std::fopen(cpi_json.c_str(), "w");
        if (!f)
            fatal("cannot write '%s'", cpi_json.c_str());
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
    }
    return 0;
}
