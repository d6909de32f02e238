/**
 * @file
 * Campaign jobs: the declarative unit of work of the simulation-
 * campaign engine. A job names a workload, a machine configuration
 * and (optionally) a critical-path analysis; the engine decides how
 * to execute it (worker thread, result cache, deduplication).
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "cpa/critpath.hpp"
#include "harness/experiment.hpp"
#include "sample/interval.hpp"
#include "workloads/workloads.hpp"

namespace reno::sweep
{

/** One simulation job of a campaign. */
struct Job {
    const Workload *workload = nullptr;
    NamedConfig config;
    /** Attach a critical-path analyzer and record its buckets. */
    bool wantCpa = false;
    /** CPA analysis chunk size (instructions); digested, so changing
     *  it invalidates cached CPA results. */
    std::uint64_t cpaChunk = 1'000'000;
    /**
     * Free-form label distinguishing jobs that share a workload and a
     * config *name* but not config contents (e.g. the same "BASE"
     * preset at two machine widths). Part of the lookup key, not the
     * content digest.
     */
    std::string tag;

    /**
     * Sampled simulation: when window.measureInsts > 0 the job is one
     * interval of a sampled run -- fast-forward to window.startInst,
     * warm up, measure -- and its result is the measured window's
     * stats delta. The window is part of the content digest.
     */
    sample::IntervalWindow window;

    /**
     * Optional execution accelerator for a sampled job: a functional
     * + warm-state checkpoint at or before window.startInst. The
     * result is identical with or without it (a checkpoint is derived
     * state), so it is NOT part of the content digest.
     */
    sample::SampleCheckpoint checkpoint;

    bool sampled() const { return window.measureInsts > 0; }
};

/** What the engine returns (and caches) for one job. */
struct JobResult {
    SimResult sim;
    bool hasCpa = false;
    /** Raw critical-path bucket weights (exact, cache-stable). */
    std::array<std::uint64_t, NumCpBuckets> cpaWeights{};

    /**
     * What the campaign's observation request
     * (CampaignOptions::observe) saw while this job simulated.
     * Deliberately NOT serialized by the result cache (the cache
     * format and job digests are observation-agnostic), so a cache
     * hit always comes back with an empty record.
     */
    obs::Observation observed;

    /** Normalized critical-path breakdown (fractions summing to ~1). */
    std::array<double, NumCpBuckets>
    cpaBreakdown() const
    {
        std::array<double, NumCpBuckets> out{};
        std::uint64_t total = 0;
        for (const std::uint64_t w : cpaWeights)
            total += w;
        if (!total)
            return out;
        for (unsigned i = 0; i < NumCpBuckets; ++i)
            out[i] = double(cpaWeights[i]) / double(total);
        return out;
    }
};

/**
 * Content digest of a job: kernel source, input seed, the full
 * serialized machine configuration, and the CPA request. Everything
 * that determines the simulation's outcome -- and nothing else (names
 * and tags are display-only).
 */
std::uint64_t jobDigest(const Job &job);

} // namespace reno::sweep
