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
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "emu/emulator.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/session.hpp"
#include "sample/sampler.hpp"
#include "sweep/campaign.hpp"
#include "sweep/reporter.hpp"
#include "workloads/workloads.hpp"

using namespace reno;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "workload/config selection (as in reno-sweep):\n"
        "  --suite spec|media|synth|mem|branch|multi|all\n"
        "                           workloads to sample (default all =\n"
        "                           the paper suites; synth/mem = long\n"
        "                           generated programs)\n"
        "  --workload NAME          one workload (repeatable)\n"
        "  --workloads GLOB         workloads matching a glob, from\n"
        "                           every suite (e.g. 'mem.chase.*')\n"
        "  --filter SUBSTR          keep matching workload names\n"
        "  --config NAME            preset (repeatable; default BASE,"
        " RENO)\n"
        "  --width 4|6              machine width (default 4)\n"
        "  --cores N                sample every config on an N-core\n"
        "                           System (1..%u; equivalent to a /Nc\n"
        "                           suffix; interval boundaries are\n"
        "                           aggregate retired instructions)\n"
        "\n"
        "sampling plan:\n"
        "  --sample N               measured intervals per program"
        " (default 10)\n"
        "  --warmup W               detailed warmup insts per interval"
        " (default 2000)\n"
        "  --measure M              measured insts per interval"
        " (default 5000)\n"
        "  --cold C                 exactly-measured cold stratum"
        " (default: total/10)\n"
        "\n"
        "validation:\n"
        "  --validate               also run full simulations; report\n"
        "                           per-workload sampled-vs-full IPC"
        " error\n"
        "  --max-error PCT          exit 1 if any |error| exceeds PCT\n"
        "\n"
        "execution:\n"
        "  --jobs N                 worker threads (default: RENO_JOBS"
        " env, else all cores)\n"
        "  --cache-dir DIR          persistent result cache; interval\n"
        "                           checkpoints persist under"
        " DIR/ckpt\n"
        "  --sweep-stats            execution summary on stderr\n"
        "\n"
        "output:\n"
        "  --report table|json|csv  reporter (default table)\n"
        "  --perf-json FILE         write wall-clock JSON with the\n"
        "                           per-phase breakdown (fast-forward\n"
        "                           vs warmup vs detailed)\n"
        "  --cpi-json FILE          write extrapolated whole-program\n"
        "                           CPI stacks (requires --cpi-stack;\n"
        "                           the same stratified estimator as\n"
        "                           the IPC estimate)\n"
        "\n"
        "observability (off by default; results are byte-identical\n"
        "either way):\n"
        "  --trace-out FILE         record a Chrome trace-event /\n"
        "                           Perfetto JSON of the run\n"
        "  --trace-sample N         + sample pipeline counters every N\n"
        "                           simulated cycles\n"
        "  --metrics-json FILE      write engine metrics JSON\n"
        "  --progress[=FILE]        stream NDJSON progress heartbeats\n"
        "                           (default sink: stderr)\n"
        "  --cpi-stack              per-cycle CPI-stack accounting on\n"
        "                           every measured window\n"
        "  --list                   list workloads/configs and exit\n"
        "  --list-configs           list configuration presets and"
        " exit\n"
        "  --list-suites            list workload suites and exit\n",
        argv0, SysParams::MaxCores);
    std::exit(0);
}

void
listEverything()
{
    std::printf("workloads:\n");
    for (const Workload &w : allWorkloads())
        std::printf("  %-11s (%s, seed %llu)\n", w.name.c_str(),
                    w.suite.c_str(),
                    static_cast<unsigned long long>(w.seed));
    for (const Workload &w : synthWorkloads())
        std::printf("  %-11s (%s, seed %llu)\n", w.name.c_str(),
                    w.suite.c_str(),
                    static_cast<unsigned long long>(w.seed));
    std::fputs(renderConfigList().c_str(), stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string suite = "all";
    std::string filter;
    std::string workloads_glob;
    std::vector<std::string> workload_names;
    std::vector<std::string> config_names;
    unsigned width = 4;
    unsigned cores = 1;
    bool validate = false;
    double max_error = 0.0;
    sample::SamplePlan plan;
    sweep::ReportFormat format = sweep::ReportFormat::Table;
    std::string perf_json;
    std::string cpi_json;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(prefix.size());
            if (i + 1 >= argc)
                fatal("%s expects a value", flag);
            return argv[++i];
        };
        auto matches = [&](const char *flag) {
            return arg == flag ||
                   arg.rfind(std::string(flag) + "=", 0) == 0;
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else if (arg == "--list") {
            listEverything();
            return 0;
        } else if (arg == "--list-configs") {
            std::fputs(renderConfigList().c_str(), stdout);
            return 0;
        } else if (arg == "--list-suites") {
            std::fputs(renderSuiteList().c_str(), stdout);
            return 0;
        } else if (matches("--suite")) {
            suite = value("--suite");
        } else if (matches("--workload")) {
            workload_names.push_back(value("--workload"));
        } else if (matches("--workloads")) {
            workloads_glob = value("--workloads");
            if (workloads_glob.empty())
                fatal("--workloads expects a glob pattern");
        } else if (matches("--filter")) {
            filter = value("--filter");
        } else if (matches("--config")) {
            config_names.push_back(value("--config"));
        } else if (matches("--width")) {
            const std::string v = value("--width");
            if (v == "4")
                width = 4;
            else if (v == "6")
                width = 6;
            else
                fatal("--width expects 4 or 6, got '%s'", v.c_str());
        } else if (matches("--cores")) {
            cores = static_cast<unsigned>(parseCount(
                "--cores", value("--cores"), 1, SysParams::MaxCores));
        } else if (matches("--sample")) {
            plan.intervals = parseCount("--sample", value("--sample"));
        } else if (matches("--warmup")) {
            plan.warmupInsts =
                parseCount("--warmup", value("--warmup"), 0);
        } else if (matches("--measure")) {
            plan.measureInsts =
                parseCount("--measure", value("--measure"));
        } else if (matches("--cold")) {
            plan.coldInsts = parseCount("--cold", value("--cold"));
        } else if (arg == "--validate") {
            validate = true;
        } else if (matches("--max-error")) {
            const std::string v = value("--max-error");
            char *end = nullptr;
            max_error = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' ||
                !std::isfinite(max_error) || max_error <= 0.0)
                fatal("--max-error expects a finite positive number, got "
                      "'%s'",
                      v.c_str());
        } else if (matches("--report")) {
            const std::string v = value("--report");
            const auto f = sweep::reportFormatFromName(v);
            if (!f)
                fatal("--report expects table, json or csv, got '%s'",
                      v.c_str());
            format = *f;
        } else if (matches("--perf-json")) {
            perf_json = value("--perf-json");
            if (perf_json.empty())
                fatal("--perf-json expects a file path");
        } else if (matches("--cpi-json")) {
            cpi_json = value("--cpi-json");
            if (cpi_json.empty())
                fatal("--cpi-json expects a file path");
        } else if (bool takes_value;
                   sweep::isCampaignFlag(arg, &takes_value)) {
            // Engine flags; parsed by parseCampaignArgs below.
            if (takes_value)
                ++i;
        } else if (bool takes_value;
                   obs::isObsFlag(arg, &takes_value)) {
            // Observability flags; parsed by parseObsArgs below.
            if (takes_value)
                ++i;
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }
    if (max_error > 0.0 && !validate)
        fatal("--max-error requires --validate");

    const std::vector<const Workload *> workloads =
        selectWorkloads(suite, workload_names, workloads_glob, filter);

    // Configuration set.
    const CoreParams base =
        width == 6 ? CoreParams::sixWide() : CoreParams::fourWide();
    if (config_names.empty())
        config_names = {"BASE", "RENO"};
    const std::vector<NamedConfig> configs =
        configsByName(config_names, base, cores);

    sample::SampleOptions options;
    options.plan = plan;
    options.campaign = sweep::parseCampaignArgs(argc, argv);
    const obs::ObsOptions obs_opts = obs::parseObsArgs(argc, argv);
    const obs::Session obs_session(obs_opts);
    if (!cpi_json.empty() && !obs_opts.cpiStack)
        fatal("--cpi-json requires --cpi-stack");
    if (!cpi_json.empty() && validate)
        fatal("--cpi-json cannot be combined with --validate");
    if (!perf_json.empty())
        obs::PhaseStats::instance().enable();

    const auto t0 = std::chrono::steady_clock::now();
    auto write_perf_json = [&] {
        if (perf_json.empty())
            return;
        const double wall_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::FILE *f = std::fopen(perf_json.c_str(), "w");
        if (!f)
            fatal("cannot write '%s'", perf_json.c_str());
        // Phases are disjoint leaves (fast-forward vs warmup vs
        // detailed ...), so their seconds sum to ~the simulation
        // share of wall_seconds.
        const auto phases = obs::PhaseStats::instance().snapshot();
        std::fprintf(f,
                     "{\n  \"wall_seconds\": %.3f,\n"
                     "  \"phases\": [\n",
                     wall_seconds);
        for (std::size_t i = 0; i < phases.size(); ++i) {
            const auto &[name, totals] = phases[i];
            std::fprintf(
                f,
                "    {\"phase\": \"%s\", \"seconds\": %.3f, "
                "\"insts\": %llu, \"minstr_per_s\": %.3f, "
                "\"count\": %llu}%s\n",
                name.c_str(),
                static_cast<double>(totals.micros) / 1e6,
                static_cast<unsigned long long>(totals.insts),
                totals.instsPerSec() / 1e6,
                static_cast<unsigned long long>(totals.count),
                i + 1 < phases.size() ? "," : "");
        }
        // Decoded-block cache totals (flushed by every Emulator on
        // destruction): how much of the functional work ran through
        // the superblock engine, and how well its cache held up.
        auto &reg = obs::MetricsRegistry::instance();
        const auto c = [&](const char *name) {
            return static_cast<unsigned long long>(
                reg.counter(name).value());
        };
        std::fprintf(
            f,
            "  ],\n"
            "  \"emu\": {\n"
            "    \"mode\": \"%s\",\n"
            "    \"insts_decoded\": %llu,\n"
            "    \"insts_interpreted\": %llu,\n"
            "    \"block_cache\": {\"lookups\": %llu, \"hits\": %llu, "
            "\"blocks_decoded\": %llu, \"superblocks_chained\": %llu, "
            "\"invalidation_events\": %llu, "
            "\"invalidated_blocks\": %llu}\n"
            "  }\n}\n",
            defaultDecodedExec() ? "decoded" : "interp",
            c("emu.insts.decoded"), c("emu.insts.interpreted"),
            c("emu.block_cache.lookups"), c("emu.block_cache.hits"),
            c("emu.block_cache.blocks_decoded"),
            c("emu.block_cache.superblocks_chained"),
            c("emu.block_cache.invalidation_events"),
            c("emu.block_cache.invalidated_blocks"));
        std::fclose(f);
    };

    if (validate) {
        const sample::ValidationReport report =
            sample::validateSampling(workloads, configs, options);
        const std::string rendered =
            sample::renderValidation(report, format);
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
        write_perf_json();
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
    const std::string rendered = sample::renderSampled(sampled, format);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    write_perf_json();

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
