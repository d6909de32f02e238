/**
 * @file
 * Sampled-simulation throughput benchmark: sampled-vs-full wall-clock
 * speedup and worst-case IPC error (whole-machine and per-core) on a
 * workload suite at 1, 2 and 4 cores, emitted as a BENCH_sample.json
 * artifact. CI reads the per-core-count "speedup" and "max_err_pct"
 * fields to gate the multi-core sampling path (>= 5x, <= 5%); keeping
 * the artifact per PR tracks the perf trajectory, not just the gate.
 *
 * The config set is the paper's RENO build-up plus the
 * division-of-labor variants: they share one warm-config group, so a
 * single functional-warming pass per workload serves every config --
 * exactly the amortization the sampled campaign is designed around.
 *
 * usage: sample_throughput [--suite S] [--out FILE]
 *   --suite S    workload suite to sample (default multi)
 *   --out FILE   JSON artifact path (default BENCH_sample.json)
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "sample/sampler.hpp"
#include "uarch/params.hpp"
#include "workloads/workloads.hpp"

using namespace reno;

namespace
{

struct Variant {
    unsigned cores = 0;
    std::size_t configsRun = 0;
    double fullSeconds = 0.0;
    double sampledSeconds = 0.0;
    std::size_t fullSims = 0;
    std::size_t sampledSims = 0;
    double speedup = 0.0;
    double maxErrPct = 0.0;  //!< worst |err| incl. per-core slots
};

Variant
runVariant(const std::vector<const Workload *> &workloads,
           unsigned cores)
{
    const std::vector<NamedConfig> configs = configsByName(
        knownConfigNames(), CoreParams::fourWide(), cores);

    sample::SampleOptions options;
    options.plan.intervals = 8;
    options.plan.warmupInsts = 4000;
    options.plan.measureInsts = 6000;
    // The exact cold stratum scales with the core count: interval
    // positions are aggregate retired instructions, so an N-core run
    // needs N times the cold coverage to span the same per-core
    // startup transient.
    options.plan.coldInsts = 30000ULL * cores;

    const sample::ValidationReport report =
        sample::validateSampling(workloads, configs, options);

    Variant v;
    v.cores = cores;
    v.configsRun = configs.size();
    v.fullSeconds = report.fullSeconds;
    v.sampledSeconds = report.sampledSeconds;
    v.fullSims = report.fullStats.simulated;
    v.sampledSims = report.sampledStats.simulated;
    v.speedup = report.speedup();
    v.maxErrPct = report.maxAbsErrorPct;
    return v;
}

void
writeJson(const std::string &path, const std::string &suite,
          const std::vector<Variant> &variants)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"sample_throughput\",\n");
    std::fprintf(f, "  \"suite\": \"%s\",\n", suite.c_str());
    std::fprintf(f, "  \"variants\": [\n");
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const Variant &v = variants[i];
        std::fprintf(
            f,
            "    {\"cores\": %u, \"configs\": %zu, "
            "\"full_seconds\": %.3f, \"sampled_seconds\": %.3f, "
            "\"full_sims\": %zu, \"sampled_sims\": %zu, "
            "\"speedup\": %.3f, \"max_err_pct\": %.3f}%s\n",
            v.cores, v.configsRun, v.fullSeconds, v.sampledSeconds,
            v.fullSims, v.sampledSims, v.speedup, v.maxErrPct,
            i + 1 < variants.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string suite = "multi";
    std::string out = "BENCH_sample.json";
    cli::Parser parser;
    parser.text("--suite S", "workload suite to sample (default multi)",
                &suite);
    parser.text("--out FILE", "JSON artifact path (default "
                "BENCH_sample.json)", &out);
    parser.parse(argc, argv);

    const auto workloads = suiteWorkloads(suite);
    std::printf("sample_throughput: %zu '%s' workloads, sampled vs "
                "full detail at 1/2/4 cores\n\n",
                workloads.size(), suite.c_str());
    std::printf("%-6s %8s %10s %13s %9s %12s\n", "cores", "configs",
                "full_s", "sampled_s", "speedup", "max_err_pct");

    std::vector<Variant> variants;
    for (const unsigned cores : {1u, 2u, 4u}) {
        const Variant v = runVariant(workloads, cores);
        std::printf("%-6u %8zu %10.2f %13.2f %8.1fx %11.2f%%\n",
                    v.cores, v.configsRun, v.fullSeconds,
                    v.sampledSeconds, v.speedup, v.maxErrPct);
        variants.push_back(v);
    }

    writeJson(out, suite, variants);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}
