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
#include "emu/emulator.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
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
        "  --emu interp|decoded     functional-emulator engine\n"
        "                           (default decoded superblocks;\n"
        "                           interp = per-step; bit-exact\n"
        "                           either way)\n"
        "\n"
        "sampled simulation (estimates instead of full runs):\n"
        "  --sample N               measured intervals per program\n"
        "  --warmup W               detailed warmup insts per interval"
        " (default 2000)\n"
        "  --measure M              measured insts per interval"
        " (default 5000)\n"
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
        "  --mem-json FILE          write per-cache-level aggregate\n"
        "                           miss-rate / write-back / prefetch\n"
        "                           JSON, plus coherence bus traffic\n"
        "  --bpred-json FILE        write per-workload branch MPKI /\n"
        "                           accuracy / mispredict-breakdown"
        " JSON\n"
        "  --multi-json FILE        write per-job coherence traffic\n"
        "                           (invalidations, interventions,\n"
        "                           upgrades) + per-core IPC JSON\n"
        "  --cpi-json FILE          write per-job CPI stacks + the\n"
        "                           campaign aggregate (requires\n"
        "                           --cpi-stack; full simulations"
        " only)\n"
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
        "  --list-suites            list workload suites and exit\n");
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
    std::uint64_t sample_intervals = 0;  //!< 0 = full simulation
    bool plan_tuned = false;  //!< --warmup/--measure given
    sample::SamplePlan plan;
    sweep::ReportFormat format = sweep::ReportFormat::Table;
    bool all_stats = false;
    std::string perf_json;
    std::string mem_json;
    std::string bpred_json;
    std::string multi_json;
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
        } else if (matches("--mem-json")) {
            mem_json = value("--mem-json");
            if (mem_json.empty())
                fatal("--mem-json expects a file path");
        } else if (matches("--bpred-json")) {
            bpred_json = value("--bpred-json");
            if (bpred_json.empty())
                fatal("--bpred-json expects a file path");
        } else if (matches("--multi-json")) {
            multi_json = value("--multi-json");
            if (multi_json.empty())
                fatal("--multi-json expects a file path");
        } else if (matches("--cpi-json")) {
            cpi_json = value("--cpi-json");
            if (cpi_json.empty())
                fatal("--cpi-json expects a file path");
        } else if (matches("--cpi-html")) {
            cpi_html = value("--cpi-html");
            if (cpi_html.empty())
                fatal("--cpi-html expects a file path");
        } else if (matches("--cores")) {
            const std::string v = value("--cores");
            char *end = nullptr;
            const unsigned long n = std::strtoul(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0' || n == 0 ||
                n > SysParams::MaxCores)
                fatal("--cores expects 1..%u, got '%s'",
                      SysParams::MaxCores, v.c_str());
            cores = static_cast<unsigned>(n);
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
        } else if (matches("--emu")) {
            const std::string v = value("--emu");
            if (v == "interp")
                setDefaultDecodedExec(false);
            else if (v == "decoded")
                setDefaultDecodedExec(true);
            else
                fatal("--emu expects interp or decoded, got '%s'",
                      v.c_str());
        } else if (matches("--sample")) {
            const std::string v = value("--sample");
            char *end = nullptr;
            sample_intervals = std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0' ||
                sample_intervals == 0)
                fatal("--sample expects a positive interval count, "
                      "got '%s'",
                      v.c_str());
        } else if (matches("--warmup")) {
            const std::string v = value("--warmup");
            char *end = nullptr;
            plan.warmupInsts = std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0')
                fatal("--warmup expects an integer, got '%s'",
                      v.c_str());
            plan_tuned = true;
        } else if (matches("--measure")) {
            const std::string v = value("--measure");
            char *end = nullptr;
            plan.measureInsts = std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0' ||
                plan.measureInsts == 0)
                fatal("--measure expects a positive count, got '%s'",
                      v.c_str());
            plan_tuned = true;
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

    // Workload set.
    std::vector<const Workload *> workloads;
    if (!workloads_glob.empty()) {
        if (!workload_names.empty())
            fatal("--workloads and --workload are exclusive");
        workloads = workloadsMatching(workloads_glob, suite);
    } else if (!workload_names.empty()) {
        for (const std::string &name : workload_names)
            workloads.push_back(&workloadByName(name));
    } else if (suite == "all") {
        for (const Workload &w : allWorkloads())
            workloads.push_back(&w);
    } else {
        workloads = suiteWorkloads(suite);
    }
    if (!filter.empty()) {
        std::vector<const Workload *> kept;
        for (const Workload *w : workloads) {
            if (w->name.find(filter) != std::string::npos)
                kept.push_back(w);
        }
        workloads = kept;
    }
    if (workloads.empty())
        fatal("no workloads selected");

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
    if (plan_tuned && sample_intervals == 0)
        fatal("--warmup/--measure require --sample");
    if (sample_intervals > 0) {
        if (want_cpa)
            fatal("--cpa cannot be combined with --sample");
        if (all_stats)
            fatal("--all-stats applies to full simulations only");
        if (!perf_json.empty())
            fatal("--perf-json applies to full simulations only");
        if (!mem_json.empty())
            fatal("--mem-json applies to full simulations only");
        if (!bpred_json.empty())
            fatal("--bpred-json applies to full simulations only");
        if (!multi_json.empty())
            fatal("--multi-json applies to full simulations only");
        if (!cpi_json.empty() || !cpi_html.empty())
            fatal("--cpi-json/--cpi-html apply to full simulations "
                  "only (use reno-sample --cpi-json for sampled "
                  "stacks)");
        sample::SampleOptions sample_opts;
        sample_opts.plan = plan;
        sample_opts.plan.intervals = sample_intervals;
        sample_opts.campaign = opts;
        const sample::SampledCampaign sampled =
            sample::runSampledCampaign(workloads, configs,
                                       sample_opts);
        const std::string rendered =
            sample::renderSampled(sampled, format);
        std::fwrite(rendered.data(), 1, rendered.size(), stdout);
        return 0;
    }

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

    if (!mem_json.empty()) {
        // Per-cache-level aggregate over every job: the CI artifact
        // tracking memory-system behavior across the sweep.
        std::uint64_t hits[NumMemStatLevels] = {};
        std::uint64_t misses[NumMemStatLevels] = {};
        std::uint64_t merges[NumMemStatLevels] = {};
        std::uint64_t wbs[NumMemStatLevels] = {};
        std::uint64_t pf_issued[NumMemStatLevels] = {};
        std::uint64_t pf_useful[NumMemStatLevels] = {};
        std::uint64_t coh_inv = 0, coh_itv = 0, coh_upg = 0,
                      coh_wb = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const SimResult &r = results.at(i).sim;
            coh_inv += r.cohInvalidations;
            coh_itv += r.cohInterventions;
            coh_upg += r.cohUpgradeMisses;
            coh_wb += r.cohWritebacks;
            const std::uint64_t miss_by_level[NumMemStatLevels] = {
                r.icacheMisses, r.dcacheMisses, r.l2Misses,
                r.l3Misses};
            for (unsigned s = 0; s < NumMemStatLevels; ++s) {
                hits[s] += r.memHits[s];
                misses[s] += miss_by_level[s];
                merges[s] += r.memMshrMerges[s];
                wbs[s] += r.memWritebacks[s];
                pf_issued[s] += r.memPrefetchIssued[s];
                pf_useful[s] += r.memPrefetchUseful[s];
            }
        }
        std::FILE *f = std::fopen(mem_json.c_str(), "w");
        if (!f)
            fatal("cannot write '%s'", mem_json.c_str());
        std::fprintf(f, "{\n  \"jobs\": %zu,\n  \"levels\": [\n",
                     results.size());
        for (unsigned s = 0; s < NumMemStatLevels; ++s) {
            const std::uint64_t accesses = hits[s] + misses[s];
            std::fprintf(
                f,
                "    {\"level\": \"%s\", \"hits\": %llu, "
                "\"misses\": %llu, \"miss_rate\": %.6f, "
                "\"mshr_merges\": %llu, \"writebacks\": %llu, "
                "\"prefetch_issued\": %llu, "
                "\"prefetch_useful\": %llu}%s\n",
                MemStatLevelNames[s],
                static_cast<unsigned long long>(hits[s]),
                static_cast<unsigned long long>(misses[s]),
                accesses ? double(misses[s]) / double(accesses) : 0.0,
                static_cast<unsigned long long>(merges[s]),
                static_cast<unsigned long long>(wbs[s]),
                static_cast<unsigned long long>(pf_issued[s]),
                static_cast<unsigned long long>(pf_useful[s]),
                s + 1 < NumMemStatLevels ? "," : "");
        }
        std::fprintf(
            f,
            "  ],\n"
            "  \"coherence\": {\"invalidations\": %llu, "
            "\"interventions\": %llu, \"upgrade_misses\": %llu, "
            "\"writebacks\": %llu}\n"
            "}\n",
            static_cast<unsigned long long>(coh_inv),
            static_cast<unsigned long long>(coh_itv),
            static_cast<unsigned long long>(coh_upg),
            static_cast<unsigned long long>(coh_wb));
        std::fclose(f);
    }

    if (!bpred_json.empty()) {
        // Per-job front-end accuracy: the CI artifact tracking
        // branch-prediction behavior per workload and per predictor
        // variant, plus a campaign-wide aggregate.
        std::FILE *f = std::fopen(bpred_json.c_str(), "w");
        if (!f)
            fatal("cannot write '%s'", bpred_json.c_str());
        std::uint64_t agg_retired = 0, agg_lookups = 0,
                      agg_mispredicts = 0;
        std::fprintf(f, "{\n  \"jobs\": [\n");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const sweep::Job &job = results.job(i);
            const SimResult &r = results.at(i).sim;
            agg_retired += r.retired;
            agg_lookups += r.bpLookups;
            agg_mispredicts += r.bpMispredicts;
            std::fprintf(
                f,
                "    {\"workload\": \"%s\", \"config\": \"%s\", "
                "\"retired\": %llu, \"lookups\": %llu, "
                "\"mispredicts\": %llu, \"dir\": %llu, "
                "\"target\": %llu, \"ras\": %llu, "
                "\"ras_overflows\": %llu, \"mpki\": %.4f, "
                "\"accuracy\": %.6f, \"tage_provider\": %llu, "
                "\"tage_alt\": %llu, "
                "\"perceptron_confident\": %llu}%s\n",
                job.workload->name.c_str(),
                job.config.name.c_str(),
                static_cast<unsigned long long>(r.retired),
                static_cast<unsigned long long>(r.bpLookups),
                static_cast<unsigned long long>(r.bpMispredicts),
                static_cast<unsigned long long>(r.bpDirMispredicts),
                static_cast<unsigned long long>(
                    r.bpTargetMispredicts),
                static_cast<unsigned long long>(r.bpRasMispredicts),
                static_cast<unsigned long long>(r.bpRasOverflows),
                r.retired ? 1000.0 * double(r.bpMispredicts) /
                                double(r.retired)
                          : 0.0,
                r.bpLookups ? 1.0 - double(r.bpMispredicts) /
                                        double(r.bpLookups)
                            : 0.0,
                static_cast<unsigned long long>(r.bpTageProviderHits),
                static_cast<unsigned long long>(r.bpTageAltHits),
                static_cast<unsigned long long>(
                    r.bpPerceptronConfident),
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(
            f,
            "  ],\n"
            "  \"aggregate\": {\"retired\": %llu, \"lookups\": %llu, "
            "\"mispredicts\": %llu, \"mpki\": %.4f, "
            "\"accuracy\": %.6f}\n"
            "}\n",
            static_cast<unsigned long long>(agg_retired),
            static_cast<unsigned long long>(agg_lookups),
            static_cast<unsigned long long>(agg_mispredicts),
            agg_retired ? 1000.0 * double(agg_mispredicts) /
                              double(agg_retired)
                        : 0.0,
            agg_lookups ? 1.0 - double(agg_mispredicts) /
                                    double(agg_lookups)
                        : 0.0);
        std::fclose(f);
    }

    if (!multi_json.empty()) {
        // Coherence traffic + per-core throughput per job: the CI
        // artifact tracking multi-core behavior (coherence.json).
        // Single-core jobs appear with zero coherence traffic, so
        // the artifact doubles as a no-false-traffic check.
        std::FILE *f = std::fopen(multi_json.c_str(), "w");
        if (!f)
            fatal("cannot write '%s'", multi_json.c_str());
        std::uint64_t agg_inv = 0, agg_itv = 0, agg_upg = 0,
                      agg_wb = 0;
        std::fprintf(f, "{\n  \"jobs\": [\n");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const sweep::Job &job = results.job(i);
            const SimResult &r = results.at(i).sim;
            agg_inv += r.cohInvalidations;
            agg_itv += r.cohInterventions;
            agg_upg += r.cohUpgradeMisses;
            agg_wb += r.cohWritebacks;
            std::fprintf(
                f,
                "    {\"workload\": \"%s\", \"config\": \"%s\", "
                "\"cores\": %u, \"cycles\": %llu, "
                "\"invalidations\": %llu, \"interventions\": %llu, "
                "\"upgrade_misses\": %llu, \"writebacks\": %llu, "
                "\"per_core\": [",
                job.workload->name.c_str(), job.config.name.c_str(),
                job.config.params.sys.numCores,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.cohInvalidations),
                static_cast<unsigned long long>(r.cohInterventions),
                static_cast<unsigned long long>(r.cohUpgradeMisses),
                static_cast<unsigned long long>(r.cohWritebacks));
            bool first = true;
            for (unsigned s = 0; s < NumCoreStatSlots; ++s) {
                if (r.coreCycles[s] == 0)
                    continue;
                std::fprintf(
                    f,
                    "%s{\"slot\": \"%s\", \"cycles\": %llu, "
                    "\"retired\": %llu, \"ipc\": %.4f}",
                    first ? "" : ", ", CoreStatSlotNames[s],
                    static_cast<unsigned long long>(r.coreCycles[s]),
                    static_cast<unsigned long long>(r.coreRetired[s]),
                    r.coreIpc(s));
                first = false;
            }
            std::fprintf(f, "]}%s\n",
                         i + 1 < results.size() ? "," : "");
        }
        std::fprintf(
            f,
            "  ],\n"
            "  \"aggregate\": {\"invalidations\": %llu, "
            "\"interventions\": %llu, \"upgrade_misses\": %llu, "
            "\"writebacks\": %llu}\n"
            "}\n",
            static_cast<unsigned long long>(agg_inv),
            static_cast<unsigned long long>(agg_itv),
            static_cast<unsigned long long>(agg_upg),
            static_cast<unsigned long long>(agg_wb));
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
