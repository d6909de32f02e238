/**
 * @file
 * reno-sweep: the campaign-engine command-line driver. Runs an ad-hoc
 * cross-product sweep (suites/workloads x named configurations) or one
 * of the repo's named figure campaigns, on all host cores, with the
 * content-addressed result cache, and reports through the pluggable
 * table/JSON/CSV reporters.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
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
        "campaign selection:\n"
        "  --suite spec|media|synth|mem|branch|multi|all\n"
        "                           workloads to sweep (default all ="
        " the paper suites)\n"
        "  --workload NAME          one workload (repeatable)\n"
        "  --workloads GLOB         workloads matching a glob, from\n"
        "                           every suite (e.g. 'mem.stream.*')\n"
        "  --filter SUBSTR          keep matching workload names\n"
        "  --config NAME            preset (repeatable; default BASE,"
        " RENO), with optional memory variants (RENO/l3/pf-stride)\n"
        "  --width 4|6              machine width (default 4)\n"
        "  --cores N                run every config on an N-core\n"
        "                           MESI-coherent System (same as a\n"
        "                           /Nc config suffix; 1..8)\n"
        "  --cpa                    critical-path analysis per job\n"
        "                           (single-core only)\n"
        "\n"
        "execution:\n"
        "  --jobs N                 worker threads (default: RENO_JOBS"
        " env, else all cores)\n"
        "  --cache-dir DIR          persistent result cache; a warm\n"
        "                           rerun performs zero simulations\n"
        "  --sweep-stats            execution summary on stderr\n"
        "\n"
        "output:\n"
        "  --report table|json|csv  reporter (default table)\n"
        "  --all-stats              report every named SimResult"
        " counter\n"
        "  --perf-json FILE         write wall-clock + aggregate IPC"
        " JSON\n"
        "                           (CI perf-smoke trend artifact)\n"
        "  --cpi-json FILE          write per-job CPI stacks + the\n"
        "                           campaign aggregate (requires\n"
        "                           --cpi-stack)\n"
        "  --cpi-html FILE          write a self-contained HTML report\n"
        "                           (stacked bars per job, hotspot\n"
        "                           tables; requires --cpi-stack)\n"
        "\n"
        "observability (off by default; results are byte-identical\n"
        "either way):\n"
        "  --trace-out FILE         record a Chrome trace-event /\n"
        "                           Perfetto JSON of the run (open at\n"
        "                           ui.perfetto.dev)\n"
        "  --trace-sample N         + sample pipeline counters every N\n"
        "                           simulated cycles\n"
        "  --metrics-json FILE      write engine metrics (job latency,\n"
        "                           queue wait, pool utilization,\n"
        "                           cache hit ratio, phase rates)\n"
        "  --progress[=FILE]        stream NDJSON progress heartbeats\n"
        "                           (default sink: stderr)\n"
        "  --cpi-stack              per-cycle CPI-stack accounting\n"
        "                           (every commit-stage cycle lands in\n"
        "                           exactly one bucket)\n"
        "  --profile-hot[=N]        per-PC hotspot profiling, top N\n"
        "                           (default 20)\n"
        "  --pipetrace[=FILE]       retired-instruction pipeline\n"
        "                           diagrams (default sink: stderr)\n"
        "  --list                   list workloads/configs and exit\n"
        "  --list-configs           list configuration presets and"
        " exit\n"
        "  --list-suites            list workload suites and exit\n",
        argv0);
    std::exit(0);
}

void
listEverything()
{
    std::printf("workloads:\n");
    for (const Workload &w : allWorkloads())
        std::printf("  %-10s (%s, seed %llu)\n", w.name.c_str(),
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
    bool want_cpa = false;
    sweep::ReportFormat format = sweep::ReportFormat::Table;
    bool all_stats = false;
    std::string perf_json;
    std::string cpi_json;
    std::string cpi_html;
    unsigned cores = 0;  //!< 0 = leave configs as parsed

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
        } else if (arg == "--all-stats") {
            all_stats = true;
        } else if (matches("--perf-json")) {
            perf_json = value("--perf-json");
            if (perf_json.empty())
                fatal("--perf-json expects a file path");
        } else if (matches("--cpi-json")) {
            cpi_json = value("--cpi-json");
            if (cpi_json.empty())
                fatal("--cpi-json expects a file path");
        } else if (matches("--cpi-html")) {
            cpi_html = value("--cpi-html");
            if (cpi_html.empty())
                fatal("--cpi-html expects a file path");
        } else if (matches("--cores")) {
            cores = static_cast<unsigned>(parseCount(
                "--cores", value("--cores"), 1, SysParams::MaxCores));
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
        } else if (arg == "--cpa") {
            want_cpa = true;
        } else if (matches("--report")) {
            const std::string v = value("--report");
            const auto f = sweep::reportFormatFromName(v);
            if (!f)
                fatal("--report expects table, json or csv, got '%s'",
                      v.c_str());
            format = *f;
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

    const std::vector<const Workload *> workloads =
        selectWorkloads(suite, workload_names, workloads_glob, filter);

    // Configuration set.
    const CoreParams base =
        width == 6 ? CoreParams::sixWide() : CoreParams::fourWide();
    if (config_names.empty())
        config_names = {"BASE", "RENO"};
    const std::vector<NamedConfig> configs =
        configsByName(config_names, base, cores);

    const sweep::CampaignOptions opts =
        sweep::parseCampaignArgs(argc, argv);
    const obs::ObsOptions obs_opts = obs::parseObsArgs(argc, argv);
    const obs::Session obs_session(obs_opts);

    if ((!cpi_json.empty() || !cpi_html.empty()) && !obs_opts.cpiStack)
        fatal("--cpi-json/--cpi-html require --cpi-stack");

    sweep::Campaign campaign;
    for (const Workload *w : workloads) {
        for (const NamedConfig &cfg : configs)
            campaign.add(*w, cfg, "", want_cpa);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const sweep::CampaignResults results = campaign.run(opts);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    const std::string rendered =
        sweep::renderResults(results, format, all_stats);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);

    if (!perf_json.empty()) {
        // Trend artifact for the CI perf-smoke job: how long the
        // campaign took and what it simulated. Aggregate IPC is over
        // every job result (cache hits included, so IPC is stable
        // even when wall_seconds measures a warm rerun).
        std::uint64_t total_cycles = 0, total_retired = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            total_cycles += results.at(i).sim.cycles;
            total_retired += results.at(i).sim.retired;
        }
        std::FILE *f = std::fopen(perf_json.c_str(), "w");
        if (!f)
            fatal("cannot write '%s'", perf_json.c_str());
        std::fprintf(
            f,
            "{\n"
            "  \"jobs\": %zu,\n"
            "  \"simulated\": %zu,\n"
            "  \"wall_seconds\": %.3f,\n"
            "  \"total_cycles\": %llu,\n"
            "  \"total_retired\": %llu,\n"
            "  \"ipc\": %.4f\n"
            "}\n",
            results.stats().jobs, results.stats().simulated,
            wall_seconds,
            static_cast<unsigned long long>(total_cycles),
            static_cast<unsigned long long>(total_retired),
            total_cycles ? double(total_retired) / double(total_cycles)
                         : 0.0);
        std::fclose(f);
    }

    if (!cpi_json.empty() || !cpi_html.empty()) {
        // Per-job CPI stacks + hotspots. Only jobs that actually
        // simulated under accounting carry a stack; a cache-hit job
        // (replayed from a profiling-agnostic cache entry) does not,
        // and the report says so rather than inventing zeros.
        std::vector<obs::CpiRow> rows;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results.at(i).cpi.valid)
                continue;
            const sweep::Job &job = results.job(i);
            obs::CpiRow row;
            row.workload = job.workload->name;
            row.config = job.config.name;
            row.cores = job.config.params.sys.numCores;
            row.report = results.at(i).cpi;
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
        auto write_file = [](const std::string &path,
                             const std::string &content) {
            std::FILE *f = std::fopen(path.c_str(), "w");
            if (!f)
                fatal("cannot write '%s'", path.c_str());
            std::fwrite(content.data(), 1, content.size(), f);
            std::fclose(f);
        };
        if (!cpi_json.empty())
            write_file(cpi_json, obs::renderCpiJson(rows));
        if (!cpi_html.empty())
            write_file(cpi_html, obs::renderCpiHtml(rows));
    }
    return 0;
}
