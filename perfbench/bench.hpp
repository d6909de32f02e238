/**
 * @file
 * Shared declarations of the renobench program: the three benchmark
 * workloads, the seeded inputs they run on, one campaign iteration,
 * the cached full-detail reference, and the JSON / digest helpers the
 * untraced (main.cpp) and traced (traced.cpp) runs share.
 *
 * The benchmark drives the simulator only through the entry points
 * users call: sweep::Campaign::run, sample::runSampledCampaign,
 * runWorkload and runFunctional. Every campaign runs on one worker
 * thread with a fresh in-memory result cache.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "harness/experiment.hpp"
#include "sample/sampler.hpp"
#include "workloads/workloads.hpp"

namespace renobench
{

using reno::NamedConfig;
using reno::SimResult;
using reno::Workload;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The benchmark workloads. */
enum class Kind { DetailPaper, SampledLong, DetailMulti };

/** Parse a workload name ("detail-paper", ...); false if unknown. */
bool kindByName(const std::string &name, Kind *out);
const char *kindName(Kind kind);

/**
 * A workload's inputs, all derived from the benchmark seed: the
 * programs (generated kernel text owned here, paper / mem / multi
 * kernels borrowed from the registries, each with a seed-derived
 * rand-syscall seed) and the machine configurations.
 */
struct Inputs {
    Kind kind = Kind::DetailPaper;
    std::vector<std::unique_ptr<const std::string>> generated;
    std::vector<Workload> programs;
    std::vector<NamedConfig> configs;

    /** Digest over every program's text, name and input seed. */
    std::uint64_t programDigest() const;
    /** Jobs per campaign iteration (programs x configs). */
    std::size_t
    numJobs() const
    {
        return programs.size() * configs.size();
    }
    /** Pointers into programs, in order. */
    std::vector<const Workload *> programPtrs() const;
};

/** Set-up: generate and assemble the programs, build the configs. */
Inputs makeInputs(Kind kind, std::uint64_t seed);

/** Assemble every program with reno::assemble(); returns seconds. */
double assembleAll(const std::vector<Workload> &programs);

/** The sampling plan of sampled-long (fixed 50 000-inst cold stratum). */
reno::sample::SamplePlan samplePlan();

/** One campaign iteration of a workload. */
struct Iteration {
    double wallSeconds = 0.0;
    /** Instructions the campaign covered: retired program
     *  instructions (detail-*) or whole-program instructions x
     *  configs (sampled-long). */
    std::uint64_t insts = 0;
    /** Job results in (program-major, config) order. detail-*: the
     *  simulated results; sampled-long: each estimate's summed
     *  measured windows. */
    std::vector<SimResult> sims;
    /** sampled-long only: the whole-program estimates. */
    std::vector<reno::sample::SampledEstimate> estimates;
    /** Digest over every SimResult and estimate. */
    std::uint64_t digest = 0;
    /** Host time and instructions of each slice (see runIteration). */
    std::vector<double> sliceSeconds;
    std::vector<std::uint64_t> sliceInsts;
};

/**
 * Run one campaign iteration on @p jobs worker threads: one
 * Campaign::run / runSampledCampaign over every program and config.
 * With @p sliced, a detailed campaign instead runs one Campaign::run
 * per job, each timed on its own; results and digest are the same.
 * A sampled campaign is never sliced: it holds every program's
 * checkpoints at once, and that memory is part of its cost.
 */
Iteration runIteration(const Inputs &inputs, unsigned jobs,
                       bool sliced = false);

/**
 * The verified full-detail reference of one (workload, seed): for
 * each job, the functional run's instruction count, whether the
 * detailed run's program output and final memory digest matched the
 * functional run, and the detailed SimResult. Computed outside the
 * timed runs and cached on disk by run.py per (sources, seed).
 */
struct Reference {
    std::uint64_t programDigest = 0;
    std::vector<std::uint64_t> funcInsts;  //!< per job
    std::vector<std::uint8_t> outputOk;    //!< per job, 0 or 1
    std::vector<SimResult> full;           //!< per job
    /** sampled-long: per-job digest of a sampled run's estimate. */
    std::vector<std::uint64_t> estimateDigests;
};

Reference computeReference(const Inputs &inputs, unsigned threads);
std::string encodeReference(const Reference &ref);
bool decodeReference(const std::string &text, Reference *out);

/**
 * Check an iteration against the reference; returns the number of
 * failed operations (jobs). A detailed job fails when its SimResult
 * differs from the verified reference run or its retired count from
 * the functional run; a sampled job fails when its estimate covers a
 * different instruction count than the functional profile or when
 * it differs from the reference's sampled run of the same job. A
 * job whose reference output or memory digest mismatched always
 * fails.
 */
std::size_t countFailures(const Inputs &inputs, const Iteration &it,
                          const Reference &ref);

/** Field-wise equality of two SimResults over the registry. */
bool sameResult(const SimResult &a, const SimResult &b);

/** Fold a SimResult into a digest. */
void digestResult(reno::Fnv64 &h, const SimResult &r);

/** Digest of a sampled estimate (every field that is reported). */
std::uint64_t estimateDigest(const reno::sample::SampledEstimate &e);

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

/** Host peak resident set of this process, in MB. */
double peakRssMb();

/** A JSON metrics object under construction. */
class Metrics
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    std::string json() const;

  private:
    std::vector<std::string> entries_;
};

/**
 * The simulated headline numbers of an iteration (deterministic):
 * reno_speedup_pct, the mean RENO-over-BASE cycle speedup, on
 * detail-paper and sampled-long; sample_err_pct, the worst |sampled -
 * full-detail| IPC error, on sampled-long.
 */
Metrics headline(const Inputs &inputs, const Iteration &it,
                 const Reference &ref);

/** The traced run: every per-layer metric for @p inputs. */
struct TracedOutput {
    Metrics metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::uint64_t digest = 0;
};
TracedOutput runTraced(const Inputs &inputs, const Reference &ref,
                       const std::string &trace_out);

} // namespace renobench
