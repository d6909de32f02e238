#include "obs/session.hpp"

#include <limits>

#include "common/cli.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/cpistack.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "trace/pipetrace.hpp"

namespace reno::obs
{

void
addObsFlags(cli::Parser &parser, ObsOptions *opts)
{
    parser.text("--trace-out FILE",
                "record a Chrome trace-event / Perfetto JSON of the "
                "run (open at ui.perfetto.dev)",
                &opts->traceOut);
    parser.count("--trace-sample N",
                 "+ sample pipeline counters every N simulated cycles",
                 &opts->traceSampleCycles);
    parser.text("--metrics-json FILE",
                "write host metrics: job latency, queue wait, cache "
                "hits, phase seconds/insts, wall clock",
                &opts->metricsJson);
    parser.add("--progress[=FILE]", cli::Value::Optional,
               "stream NDJSON progress heartbeats (default: stderr)",
               [opts](const std::string &path) {
                   opts->progress = true;
                   opts->progressPath = path;
               });
    parser.flag("--cpi-stack",
                "per-cycle CPI-stack accounting (every commit-stage "
                "cycle lands in exactly one bucket)",
                &opts->cpiStack);
    parser.add("--profile-hot[=N]", cli::Value::Optional,
               "per-PC hotspot profiling, top N (default 20)",
               [opts](const std::string &n) {
                   opts->profileHot =
                       n.empty() ? 20
                                 : static_cast<unsigned>(parseCount(
                                       "--profile-hot=", n, 1,
                                       std::numeric_limits<unsigned>::max()));
               });
    parser.add("--pipetrace[=FILE]", cli::Value::Optional,
               "retired-instruction pipeline diagrams (default: "
               "stderr)",
               [opts](const std::string &path) {
                   opts->pipetrace = true;
                   opts->pipetracePath = path;
               });
}

Session::Session(const ObsOptions &opts)
    : opts_(opts), startMicros_(steadyClock().nowMicros())
{
    if (opts_.traceSampleCycles && opts_.traceOut.empty())
        fatal("--trace-sample requires --trace-out");
    if (!opts_.traceOut.empty()) {
        Tracer::instance().setCycleSampleInterval(
            opts_.traceSampleCycles);
        Tracer::instance().start();
        Tracer::instance().threadName("main");
    }
    if (!opts_.metricsJson.empty())
        enablePhaseAccounting();
    if (opts_.progress) {
        std::FILE *sink = stderr;
        if (!opts_.progressPath.empty()) {
            progressFile_ =
                std::fopen(opts_.progressPath.c_str(), "w");
            if (!progressFile_)
                fatal("--progress: cannot write '%s'",
                      opts_.progressPath.c_str());
            sink = progressFile_;
        }
        ProgressMeter::instance().enable(sink);
    }
    if (opts_.cpiStack)
        CpiAccounting::instance().setStackEnabled(true);
    if (opts_.profileHot > 0)
        CpiAccounting::instance().setHotspotTopN(opts_.profileHot);
    if (opts_.pipetrace) {
        std::FILE *sink = stderr;
        if (!opts_.pipetracePath.empty()) {
            pipetraceFile_ =
                std::fopen(opts_.pipetracePath.c_str(), "w");
            if (!pipetraceFile_)
                fatal("--pipetrace: cannot write '%s'",
                      opts_.pipetracePath.c_str());
            sink = pipetraceFile_;
        }
        PipeTraceSink::instance().enable(sink);
    }
}

Session::~Session()
{
    if (opts_.pipetrace) {
        PipeTraceSink::instance().disable();
        if (pipetraceFile_)
            std::fclose(pipetraceFile_);
    }
    if (opts_.cpiStack)
        CpiAccounting::instance().setStackEnabled(false);
    if (opts_.profileHot > 0)
        CpiAccounting::instance().setHotspotTopN(0);
    if (opts_.progress) {
        ProgressMeter::instance().finish();
        if (progressFile_)
            std::fclose(progressFile_);
    }
    if (!opts_.metricsJson.empty()) {
        disablePhaseAccounting();
        auto &registry = MetricsRegistry::instance();
        registry.gauge("run.wall_seconds")
            .set(static_cast<double>(steadyClock().nowMicros() -
                                     startMicros_) /
                 1e6);
        registry.writeJson(opts_.metricsJson);
    }
    if (!opts_.traceOut.empty()) {
        Tracer::instance().stop();
        Tracer::instance().writeJson(opts_.traceOut);
        Tracer::instance().clear();
        Tracer::instance().setCycleSampleInterval(0);
    }
}

} // namespace reno::obs
