/**
 * @file
 * Tests for the observability layer: the event tracer produces valid,
 * well-nested Chrome trace-event JSON with deterministic fake-clock
 * timestamps; tracing (with counter sampling) never perturbs
 * simulated results; the metrics registry computes percentiles and
 * renders its JSON shape; the progress meter streams NDJSON
 * heartbeats; the log sink honors thresholds and redirection; and
 * phase accounting accumulates leaf spans.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/observation.hpp"
#include "obs/phase.hpp"
#include "obs/progress.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "sample/interval.hpp"
#include "sweep/campaign.hpp"
#include "sweep/result_cache.hpp"
#include "workloads/workloads.hpp"

using namespace reno;
using namespace reno::obs;

namespace
{

/**
 * Minimal recursive-descent JSON validator: accepts exactly the JSON
 * grammar (objects, arrays, strings, numbers, true/false/null). The
 * emitters under test produce machine-written JSON, so "parses
 * cleanly" is the whole contract.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return literal("true");
        case 'f': return literal("false");
        case 'n': return literal("null");
        default: return number();
        }
    }

    bool
    object()
    {
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** Read a whole FILE* that was written then rewound. */
std::string
slurp(std::FILE *f)
{
    std::rewind(f);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    return out;
}

/** RAII tracer shutdown so one test never leaks into the next. */
struct TracerGuard {
    ~TracerGuard()
    {
        Tracer::instance().stop();
        Tracer::instance().clear();
        Tracer::instance().setCycleSampleInterval(0);
    }
};

const Workload &
testWorkload()
{
    return workloadByName("adpcm.dec");
}

} // namespace

TEST(Trace, FakeClockSpansNestAndTimestampsAreExact)
{
    TracerGuard guard;
    ManualClock clock;
    Tracer::instance().clear();
    Tracer::instance().start(&clock);

    {
        TraceSpan outer("outer", "test");
        clock.advance(10);
        {
            TraceSpan inner("inner", "test",
                            TraceArgs().add("k", "v").str());
            clock.advance(5);
        }
        clock.advance(2);
    }
    Tracer::instance().instant("mark", "test");
    Tracer::instance().stop();

    const std::vector<TraceEvent> events = Tracer::instance().events();
    ASSERT_EQ(events.size(), 5u);

    EXPECT_EQ(events[0].ph, TraceEvent::Phase::Begin);
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].ts, 0u);
    EXPECT_EQ(events[1].ph, TraceEvent::Phase::Begin);
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[1].ts, 10u);
    EXPECT_EQ(events[2].ph, TraceEvent::Phase::End);
    EXPECT_EQ(events[2].name, "inner");
    EXPECT_EQ(events[2].ts, 15u);
    EXPECT_EQ(events[3].ph, TraceEvent::Phase::End);
    EXPECT_EQ(events[3].name, "outer");
    EXPECT_EQ(events[3].ts, 17u);
    EXPECT_EQ(events[4].ph, TraceEvent::Phase::Instant);

    // One thread recorded everything: same tid throughout.
    for (const TraceEvent &e : events)
        EXPECT_EQ(e.tid, events[0].tid);
}

namespace
{

/**
 * Trace @p workload on @p params with --trace-sample 1000 and check
 * the buffer: valid JSON, balanced per-thread B/E nesting,
 * non-decreasing per-thread timestamps, and counter samples that each
 * carry every SimResult registry field. Returns the counter-sample
 * count per lane.
 */
std::map<std::string, std::size_t>
checkTracedRun(const Workload &workload, const CoreParams &params)
{
    TracerGuard guard;
    Tracer::instance().clear();
    Tracer::instance().setCycleSampleInterval(1000);
    Tracer::instance().start();
    runWorkload(workload, params);
    Tracer::instance().stop();

    const std::string json = Tracer::instance().renderJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);

    // Per-thread B/E nesting is a well-formed bracket sequence, and
    // per-thread timestamps never decrease.
    std::map<std::uint32_t, std::vector<std::string>> stacks;
    std::map<std::uint32_t, std::uint64_t> last_ts;
    std::map<std::string, std::size_t> counters;
    for (const TraceEvent &e : Tracer::instance().events()) {
        auto it = last_ts.find(e.tid);
        if (it != last_ts.end()) {
            EXPECT_GE(e.ts, it->second);
        }
        last_ts[e.tid] = e.ts;
        switch (e.ph) {
        case TraceEvent::Phase::Begin:
            stacks[e.tid].push_back(e.name);
            break;
        case TraceEvent::Phase::End:
            EXPECT_FALSE(stacks[e.tid].empty());
            if (!stacks[e.tid].empty()) {
                EXPECT_EQ(stacks[e.tid].back(), e.name);
                stacks[e.tid].pop_back();
            }
            break;
        case TraceEvent::Phase::Counter:
            ++counters[e.name];
            // The sample is the registry: every field, by name.
            for (const SimStatField &f : simResultFields())
                EXPECT_NE(e.args.find("\"" + std::string(f.name) +
                                      "\": "),
                          std::string::npos)
                    << e.name << " sample lacks " << f.name;
            break;
        default:
            break;
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid "
                                   << tid;
    return counters;
}

} // namespace

TEST(Trace, RealRunEmitsValidJsonWithBalancedNesting)
{
    const auto counters =
        checkTracedRun(testWorkload(), CoreParams::fourWide());
    // --trace-sample was on: the pipeline emitted counter series on
    // the one core's lane.
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters.begin()->first, "core0.stats");
    EXPECT_GT(counters.begin()->second, 0u);
}

TEST(Trace, TwoCoreRunSamplesEachCoreOnItsOwnLane)
{
    CoreParams params = CoreParams::fourWide();
    params.sys.numCores = 2;
    const auto counters =
        checkTracedRun(workloadByName("multi.false"), params);
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_GT(counters.at("core0.stats"), 0u);
    EXPECT_GT(counters.at("core1.stats"), 0u);
}

TEST(ObsArgsDeath, MalformedCountsAreRejectedNamingTheFlag)
{
    const auto dies = [](std::vector<const char *> argv,
                         const char *message) {
        ObsOptions opts;
        ObservationRequest request;
        std::string pipetrace_path;
        cli::Parser parser;
        addObsFlags(parser, &opts);
        addObservationFlags(parser, &request, &pipetrace_path);
        EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()),
                                 const_cast<char **>(argv.data())),
                    ::testing::ExitedWithCode(1), message);
    };
    dies({"prog", "--trace-out", "t.json", "--trace-sample", "100x"},
         "--trace-sample expects a positive integer, got '100x'");
    dies({"prog", "--trace-out", "t.json", "--trace-sample=-1"},
         "--trace-sample expects a positive integer, got '-1'");
    dies({"prog", "--profile-hot=-5"}, "--profile-hot= expects 1");
}

TEST(ObsArgsDeath, HostFlagsAloneRejectCoreObservationFlags)
{
    // reno-sample's table: the host flags and the campaign flags, but
    // no core observation flags, which sampled jobs cannot honour.
    const auto rejects = [](const char *arg) {
        ObsOptions opts;
        sweep::CampaignOptions campaign;
        cli::Parser parser;
        addObsFlags(parser, &opts);
        sweep::addCampaignFlags(parser, &campaign);
        std::vector<const char *> argv = {"prog", arg};
        EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()),
                                 const_cast<char **>(argv.data())),
                    ::testing::ExitedWithCode(1),
                    std::string("unknown argument '") + arg + "'");
    };
    rejects("--pipetrace");
    rejects("--pipetrace=trace.txt");
    rejects("--profile-hot=5");
    rejects("--cpi-stack");
}

TEST(Trace, SimResultsAreByteIdenticalWithTracingOnAndOff)
{
    using sweep::Job;
    using sweep::JobResult;
    using sweep::ResultCache;

    const CoreParams params = CoreParams::fourWide();

    JobResult off;
    off.sim = runWorkload(testWorkload(), params).sim;

    JobResult on;
    {
        TracerGuard guard;
        Tracer::instance().clear();
        Tracer::instance().setCycleSampleInterval(500);
        Tracer::instance().start();
        on.sim = runWorkload(testWorkload(), params).sim;
        Tracer::instance().stop();
    }

    // The persistence encoding covers every SimResult field, so this
    // is a byte-for-byte comparison of the whole result.
    EXPECT_EQ(ResultCache::encode(off), ResultCache::encode(on));
}

TEST(Metrics, HistogramPercentilesAndJsonShape)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();

    registry.counter("test.count").inc(41);
    registry.counter("test.count").inc();
    registry.gauge("test.gauge").set(2.5);
    Histogram &h = registry.histogram("test.hist");
    for (int v = 100; v >= 1; --v)  // 1..100, reversed insert order
        h.record(static_cast<double>(v));

    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(95.0), 95.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);

    const std::string json = registry.renderJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"test.count\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"test.gauge\": 2.500000"),
              std::string::npos);
    EXPECT_NE(json.find("\"p95\": 95.000000"), std::string::npos);
    EXPECT_NE(json.find("\"p99\": 99.000000"), std::string::npos);

    registry.reset();
}

TEST(Metrics, CampaignRecordsEngineCountersAndCacheGauges)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();

    const CoreParams base = CoreParams::fourWide();
    sweep::Campaign campaign;
    campaign.add(testWorkload(), {"BASE", base});
    campaign.add(testWorkload(), {"BASE", base});  // dedups to 1 slot

    sweep::CampaignOptions opts;
    opts.jobs = 1;
    campaign.run(opts);

    EXPECT_EQ(registry.counter("sweep.jobs.submitted").value(), 2u);
    EXPECT_EQ(registry.counter("sweep.jobs.unique").value(), 1u);
    EXPECT_EQ(registry.counter("sweep.jobs.simulated").value(), 1u);
    EXPECT_EQ(registry.counter("sweep.jobs.cache_hits").value(), 0u);
    EXPECT_EQ(registry.histogram("sweep.job.latency_ms").count(), 1u);
    EXPECT_DOUBLE_EQ(registry.gauge("sweep.cache.stores").value(),
                     1.0);

    registry.reset();
}

TEST(Progress, StreamsNdjsonHeartbeatsAndFinalTotals)
{
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);

    ManualClock clock;
    auto &meter = ProgressMeter::instance();
    meter.enable(sink, &clock, 0);  // interval 0: every event emits
    meter.addTotal(3);
    clock.advance(1'000'000);
    meter.jobDone(1000, false);
    clock.advance(1'000'000);
    meter.jobDone(0, true);
    clock.advance(1'000'000);
    meter.jobDone(2000, false, true);
    meter.finish();

    const std::string text = slurp(sink);
    std::fclose(sink);

    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        ASSERT_NE(nl, std::string::npos) << "unterminated line";
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    ASSERT_EQ(lines.size(), 4u);  // 3 events + the final heartbeat
    for (const std::string &line : lines)
        EXPECT_TRUE(JsonChecker(line).valid()) << line;

    EXPECT_NE(lines[0].find("\"done\": 1"), std::string::npos);
    EXPECT_NE(lines[0].find("\"eta_s\": 2.000"), std::string::npos);
    const std::string &last = lines.back();
    EXPECT_NE(last.find("\"done\": 3"), std::string::npos);
    EXPECT_NE(last.find("\"total\": 3"), std::string::npos);
    EXPECT_NE(last.find("\"failed\": 1"), std::string::npos);
    EXPECT_NE(last.find("\"cache_hits\": 1"), std::string::npos);
    EXPECT_NE(last.find("\"simulated_insts\": 3000"),
              std::string::npos);
    EXPECT_NE(last.find("\"minstr_per_s\": 0.001"),
              std::string::npos);
}

TEST(Progress, FirstHeartbeatEmitsNullRateNotInfOrNan)
{
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);

    // A job finishing in the same microsecond the meter was enabled
    // (elapsed time zero) must not divide into inf/nan: strict NDJSON
    // consumers reject both. The undefined rate is JSON null.
    ManualClock clock;
    auto &meter = ProgressMeter::instance();
    meter.enable(sink, &clock, 0);
    meter.addTotal(2);
    meter.jobDone(1000, false);  // no clock advance: elapsed == 0
    meter.finish();

    const std::string text = slurp(sink);
    std::fclose(sink);

    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        ASSERT_NE(nl, std::string::npos) << "unterminated line";
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    ASSERT_EQ(lines.size(), 2u);  // the event + the final heartbeat
    for (const std::string &line : lines) {
        EXPECT_TRUE(JsonChecker(line).valid()) << line;
        EXPECT_EQ(line.find("inf"), std::string::npos) << line;
        EXPECT_EQ(line.find("nan"), std::string::npos) << line;
    }
    EXPECT_NE(lines[0].find("\"minstr_per_s\": null"),
              std::string::npos);

    // An empty campaign's final heartbeat has no job to pace an ETA
    // from: null again, never a division artifact.
    std::FILE *sink2 = std::tmpfile();
    ASSERT_NE(sink2, nullptr);
    meter.enable(sink2, &clock, 0);
    meter.finish();
    const std::string text2 = slurp(sink2);
    std::fclose(sink2);
    EXPECT_NE(text2.find("\"eta_s\": null"), std::string::npos);
}

TEST(Log, ThresholdFiltersAndSinkRedirects)
{
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    std::FILE *prev_sink = setLogSink(sink);
    const LogLevel prev_level = setLogThreshold(LogLevel::Info);

    inform("visible info %d", 1);
    warn("visible warning");
    setLogThreshold(LogLevel::Warn);
    inform("suppressed info");
    warn("still visible");
    setLogThreshold(LogLevel::Silent);
    inform("suppressed");
    warn("suppressed");

    setLogThreshold(prev_level);
    setLogSink(prev_sink);

    const std::string text = slurp(sink);
    std::fclose(sink);
    EXPECT_EQ(text,
              "info: visible info 1\n"
              "warn: visible warning\n"
              "warn: still visible\n");
}

TEST(Cache, CountsHitsMissesAndStores)
{
    using sweep::JobResult;
    sweep::ResultCache cache;

    JobResult result;
    result.sim.cycles = 7;
    JobResult out;

    EXPECT_FALSE(cache.lookup(1, &out));
    cache.store(1, result);
    EXPECT_TRUE(cache.lookup(1, &out));
    EXPECT_TRUE(cache.lookup(1, &out));
    EXPECT_FALSE(cache.lookup(2, &out));

    EXPECT_EQ(cache.memoryHits(), 2u);
    EXPECT_EQ(cache.diskHits(), 0u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.stores(), 1u);
    EXPECT_DOUBLE_EQ(cache.hitRatio(), 0.5);
}

TEST(Phase, SpansAccumulateMicrosInstsAndCounts)
{
    auto &registry = MetricsRegistry::instance();
    ManualClock clock;
    registry.reset();
    enablePhaseAccounting(&clock);

    {
        PhaseSpan span("unit.a");
        clock.advance(250);
        span.setInsts(500);
    }
    {
        PhaseSpan span("unit.a");
        clock.advance(750);
        span.setInsts(1500);
    }
    {
        PhaseSpan span("unit.b");
        clock.advance(10);
    }
    disablePhaseAccounting();
    {
        PhaseSpan off("unit.c");  // accounting is off: records nothing
        clock.advance(5);
    }

    const std::string json = registry.renderJson();
    EXPECT_EQ(json.find("unit.c"), std::string::npos);
    const double a_seconds = registry.gauge("phase.unit.a.seconds").value();
    const std::uint64_t a_insts =
        registry.counter("phase.unit.a.insts").value();
    EXPECT_EQ(a_seconds, 1000 / 1e6);
    EXPECT_EQ(a_insts, 2000u);
    EXPECT_EQ(registry.counter("phase.unit.a.count").value(), 2u);
    // 2000 insts / 1000 us = 2M insts/sec.
    EXPECT_DOUBLE_EQ(static_cast<double>(a_insts) / a_seconds,
                     2'000'000.0);
    EXPECT_EQ(registry.gauge("phase.unit.b.seconds").value(), 10 / 1e6);
    EXPECT_EQ(registry.counter("phase.unit.b.insts").value(), 0u);
    EXPECT_EQ(registry.counter("phase.unit.b.count").value(), 1u);
    registry.reset();
}

TEST(Phase, SampledIntervalAccountsDisjointLeafPhases)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();
    enablePhaseAccounting();

    sample::IntervalWindow window;
    window.startInst = 2000;
    window.warmupInsts = 500;
    window.measureInsts = 1000;
    const SimResult r = sample::runIntervalDetailed(
        testWorkload(), CoreParams::fourWide(), window, nullptr);
    disablePhaseAccounting();
    EXPECT_GT(r.retired, 0u);

    const std::string json = registry.renderJson();
    const auto insts = [&](const char *phase) {
        return registry.counter(strprintf("phase.%s.insts", phase))
            .value();
    };

    // No checkpoint: fast-forward warms [0, startInst), then the
    // detailed warmup and measured window run on the core.
    ASSERT_NE(json.find("phase.sample.fastforward.insts"),
              std::string::npos);
    EXPECT_EQ(insts("sample.fastforward"), window.startInst);
    ASSERT_NE(json.find("phase.sample.warmup.insts"), std::string::npos);
    EXPECT_GE(insts("sample.warmup"), window.warmupInsts);
    ASSERT_NE(json.find("phase.sample.detailed.insts"),
              std::string::npos);
    EXPECT_GE(insts("sample.detailed"), window.measureInsts);
    EXPECT_EQ(json.find("phase.sample.restore"), std::string::npos);
    registry.reset();
}
