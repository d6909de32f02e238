/**
 * @file
 * renobench: one benchmark workload, run once.
 *
 * usage: renobench --workload NAME --seed N [--seconds S] [--trace 0|1]
 *                  [--mode run|reference|programs] --ref FILE
 *                  [--trace-out FILE]
 *
 *   --mode reference  compute the verified full-detail reference of
 *                     (workload, seed) and write it to FILE
 *   --mode run        (default) set up, then time whole campaign
 *                     iterations for S seconds (--trace 0), or run
 *                     the traced per-layer probes (--trace 1, which
 *                     ignores --seconds); every job is checked
 *                     against the reference in FILE
 *   --mode programs   print the digest of the seed's generated
 *                     programs (the same seed must print the same)
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics, plus an "info" object (digests, iteration count,
 * simulated headline numbers, compiler and build type) that run.py
 * reports separately. Normally driven by run.py, which builds this
 * binary, caches the reference and adds the host manifest.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/log.hpp"

using namespace renobench;

namespace
{

/** Set-up repetitions per timed run; set-up time is their median. */
constexpr int SetupReps = 25;

#ifndef RENOBENCH_BUILD_TYPE
#define RENOBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define RENOBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define RENOBENCH_COMPILER "gcc " __VERSION__
#else
#define RENOBENCH_COMPILER "unknown"
#endif

struct Args {
    Kind kind = Kind::DetailPaper;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string mode = "run";
    std::string ref;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            reno::fatal("%s needs a value", arg.c_str());
        const std::string v = argv[++i];
        if (arg == "--workload") {
            if (!kindByName(v, &a.kind))
                reno::fatal("unknown workload '%s' (detail-paper, "
                            "sampled-long, detail-multi)", v.c_str());
            have_workload = true;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(v.c_str(), nullptr);
        } else if (arg == "--trace") {
            a.trace = v == "1";
        } else if (arg == "--mode") {
            a.mode = v;
        } else if (arg == "--ref") {
            a.ref = v;
        } else if (arg == "--trace-out") {
            a.traceOut = v;
        } else {
            reno::fatal("unknown flag %s", arg.c_str());
        }
    }
    if (!have_workload || !have_seed)
        reno::fatal("--workload and --seed are required");
    if (a.mode != "programs" && a.ref.empty())
        reno::fatal("--ref FILE is required");
    return a;
}

std::string
hex(std::uint64_t v)
{
    return reno::digestHex(v);
}

std::string
jsonBool(bool b)
{
    return b ? "true" : "false";
}

Reference
loadReference(const std::string &path, const Inputs &inputs)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Reference ref;
    if (!in || !decodeReference(text.str(), &ref))
        reno::fatal("cannot read reference '%s'", path.c_str());
    if (ref.programDigest != inputs.programDigest())
        reno::fatal("reference '%s' was made from other programs",
                    path.c_str());
    return ref;
}

int
runReference(const Args &a)
{
    const Inputs inputs = makeInputs(a.kind, a.seed);
    const unsigned threads =
        std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
    const Reference ref = computeReference(inputs, threads);
    std::ofstream out(a.ref);
    out << encodeReference(ref);
    if (!out)
        reno::fatal("cannot write reference '%s'", a.ref.c_str());
    std::size_t bad = 0;
    for (const std::uint8_t ok : ref.outputOk)
        bad += ok ? 0 : 1;
    std::printf("# reference: %zu jobs, %zu with output or memory "
                "mismatches\n", ref.full.size(), bad);
    return 0;
}

int
runTimed(const Args &a)
{
    // Set-up, several times: the same seed must give byte-identical
    // programs every time.
    std::vector<double> setup_s;
    Inputs inputs;
    std::uint64_t programs = 0;
    bool same_programs = true;
    for (int r = 0; r < SetupReps; ++r) {
        const Clock::time_point t0 = Clock::now();
        Inputs fresh = makeInputs(a.kind, a.seed);
        setup_s.push_back(secondsSince(t0));
        if (r == 0)
            programs = fresh.programDigest();
        same_programs &= fresh.programDigest() == programs;
        inputs = std::move(fresh);
    }
    // Let the campaign's memoized assembly finish before timing.
    for (const Workload &w : inputs.programs)
        reno::assembleWorkload(w);
    const Reference ref = loadReference(a.ref, inputs);

    // Whole iterations only, and none that would end past the run's
    // budget (judged by the slowest so far); always at least one.
    // A detailed campaign runs in slices of one job, and its time is
    // the sum over jobs of each job's median time: the host's speed
    // drifts within a run, and a per-job median discards the
    // iterations a short slow spell hit.
    std::vector<std::vector<double>> slice_s;
    std::size_t iterations = 0, attempted = 0, failed = 0;
    Iteration first;
    bool deterministic = true;
    const Clock::time_point start = Clock::now();
    double slowest = 0.0;
    while (iterations == 0 || secondsSince(start) + slowest <= a.seconds) {
        Iteration it = runIteration(inputs, 1, true);
        slowest = std::max(slowest, it.wallSeconds);
        slice_s.resize(it.sliceSeconds.size());
        for (std::size_t s = 0; s < it.sliceSeconds.size(); ++s)
            slice_s[s].push_back(it.sliceSeconds[s]);
        ++iterations;
        attempted += inputs.numJobs();
        failed += countFailures(inputs, it, ref);
        std::printf("# iteration %zu: %.3f s, %.4f Minstr/s\n",
                    iterations, it.wallSeconds,
                    double(it.insts) / it.wallSeconds / 1e6);
        if (iterations == 1)
            first = std::move(it);
        else
            deterministic &= it.digest == first.digest;
    }
    double campaign_s = 0.0;
    for (const std::vector<double> &times : slice_s)
        campaign_s += median(times);

    Metrics m;
    m.add("sim_minstr_per_s", double(first.insts) / campaign_s / 1e6,
          "Minstr/s");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");

    const bool correct = failed == 0 && same_programs && deterministic;
    std::printf("# %s seed %llu: %zu iterations, %zu jobs, %zu failed\n",
                kindName(a.kind),
                static_cast<unsigned long long>(a.seed), iterations,
                attempted, failed);
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": %s, \"info\": {\"results_digest\": \"%s\", "
        "\"program_digest\": \"%s\", \"iterations\": %zu, "
        "\"same_programs\": %s, \"deterministic\": %s, "
        "\"simulated\": %s, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\"}}\n",
        jsonBool(correct).c_str(), attempted, failed, m.json().c_str(),
        hex(first.digest).c_str(), hex(programs).c_str(), iterations,
        jsonBool(same_programs).c_str(),
        jsonBool(deterministic).c_str(),
        headline(inputs, first, ref).json().c_str(),
        RENOBENCH_COMPILER, RENOBENCH_BUILD_TYPE);
    return 0;
}

int
runTracedMode(const Args &a)
{
    const Inputs inputs = makeInputs(a.kind, a.seed);
    const Reference ref = loadReference(a.ref, inputs);
    const TracedOutput out = runTraced(inputs, ref, a.traceOut);
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": %s, \"info\": {\"results_digest\": \"%s\", "
        "\"program_digest\": \"%s\", \"compiler\": \"%s\", "
        "\"build_type\": \"%s\"}}\n",
        jsonBool(out.failed == 0).c_str(), out.attempted, out.failed,
        out.metrics.json().c_str(), hex(out.digest).c_str(),
        hex(inputs.programDigest()).c_str(), RENOBENCH_COMPILER,
        RENOBENCH_BUILD_TYPE);
    return 0;
}

int
printPrograms(const Args &a)
{
    const Inputs inputs = makeInputs(a.kind, a.seed);
    for (const Workload &w : inputs.programs) {
        reno::Fnv64 h;
        h.update(w.source);
        std::printf("%s seed %llu text %s\n", w.name.c_str(),
                    static_cast<unsigned long long>(w.seed),
                    h.hex().c_str());
    }
    std::printf("programs %s\n", hex(inputs.programDigest()).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (a.mode == "reference")
        return runReference(a);
    if (a.mode == "programs")
        return printPrograms(a);
    if (a.mode != "run")
        reno::fatal("unknown mode '%s'", a.mode.c_str());
    return a.trace ? runTracedMode(a) : runTimed(a);
}
