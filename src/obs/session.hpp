/**
 * @file
 * CLI front door for the observability layer. A driver registers the
 * standard obs flags into its cli::Parser (addObsFlags, like the
 * campaign engine's addCampaignFlags) and constructs one obs::Session
 * for the lifetime of the run:
 *
 *   --trace-out FILE     record a Chrome trace-event / Perfetto JSON
 *   --trace-sample N     + sample pipeline counters every N cycles
 *   --metrics-json FILE  write the metrics registry as JSON at exit:
 *                        engine metrics, per-phase seconds /
 *                        instructions / spans, the emulator's block
 *                        cache counters and run.wall_seconds
 *   --progress[=FILE]    stream NDJSON heartbeats (default: stderr)
 *
 * These measure the host, so they stay process-wide. What the
 * simulated cores observe (CPI stacks, hotspots, pipeline traces) is
 * requested per job instead (obs/observation.hpp), through the flags
 * addObservationFlags registers.
 *
 * Construction checks the flags' combination (--trace-sample requires
 * --trace-out) and enables the requested facilities; destruction
 * flushes them (final progress heartbeat, run.wall_seconds = the
 * session's lifetime, JSON files written). Everything defaults off, and
 * none of it perturbs simulated results: job digests, caching and
 * report output are byte-identical with the session active or not.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace reno::cli
{
class Parser;
}

namespace reno::obs
{

struct ObservationRequest;

/** Parsed obs flags (see file doc for the flag set). */
struct ObsOptions {
    std::string traceOut;     //!< --trace-out FILE ("" = off)
    std::uint64_t traceSampleCycles = 0;  //!< --trace-sample N
    std::string metricsJson;  //!< --metrics-json FILE ("" = off)
    bool progress = false;    //!< --progress[=FILE]
    std::string progressPath; //!< "" = stderr
};

/** Register the obs flags, which fill @p *opts. */
void addObsFlags(cli::Parser &parser, ObsOptions *opts);

/**
 * Register the per-job core observation flags of a detailed campaign
 * driver, which fill @p *request and @p *pipetrace_path ("" = stderr):
 *
 *   --profile-hot[=N]    per-PC hotspot profiling, top N (default 20)
 *   --pipetrace[=FILE]   retired-instruction pipeline diagrams
 */
void addObservationFlags(cli::Parser &parser, ObservationRequest *request,
                         std::string *pipetrace_path);

/** RAII activation of the facilities requested in ObsOptions. */
class Session
{
  public:
    explicit Session(const ObsOptions &opts);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

  private:
    ObsOptions opts_;
    std::uint64_t startMicros_ = 0;
    std::FILE *progressFile_ = nullptr;  //!< owned when non-null
};

} // namespace reno::obs
