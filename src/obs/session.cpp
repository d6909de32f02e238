#include "obs/session.hpp"

#include <limits>

#include "common/cli.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/observation.hpp"
#include "obs/phase.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

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
}

void
addObservationFlags(cli::Parser &parser, ObservationRequest *request,
                    std::string *pipetrace_path)
{
    parser.add("--profile-hot[=N]", cli::Value::Optional,
               "per-PC hotspot profiling, top N (default 20; needs "
               "--cpi-json or --cpi-html)",
               [request](const std::string &n) {
                   request->hotTopN =
                       n.empty() ? 20
                                 : static_cast<unsigned>(parseCount(
                                       "--profile-hot=", n, 1,
                                       std::numeric_limits<unsigned>::max()));
               });
    parser.add("--pipetrace[=FILE]", cli::Value::Optional,
               "retired-instruction pipeline diagrams, one per "
               "simulated job in submission order (default: stderr)",
               [request, pipetrace_path](const std::string &path) {
                   request->pipetrace = true;
                   *pipetrace_path = path;
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
}

Session::~Session()
{
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
