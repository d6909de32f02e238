/**
 * @file
 * Wall-clock phase accounting for sampled and full simulation:
 * a PhaseSpan brackets one leaf phase of work -- fast-forward
 * (functional warming), checkpoint restore/capture, detailed warmup,
 * a measured window, a full detailed run -- and, per enabled
 * facility,
 *
 *   - emits a begin/end span to the event tracer (obs/trace.hpp), so
 *     traces show where inside each job the time went, and
 *   - records into the metrics registry (obs/metrics.hpp) the
 *     elapsed seconds, executed instructions and span count of its
 *     phase, as phase.<name>.seconds (a gauge) and
 *     phase.<name>.insts / phase.<name>.count (counters) of
 *     --metrics-json.
 *
 * Phases are leaves by convention: no PhaseSpan nests inside another,
 * so the per-phase totals are disjoint and sum to (roughly) the
 * simulation wall clock. Both facilities default off (obs::Session
 * turns accounting on for --metrics-json); a disabled PhaseSpan costs
 * two relaxed atomic loads.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "common/clock.hpp"
#include "obs/trace.hpp"

namespace reno::obs
{

/** Start recording spans, timed by @p clock (default: the steady
 *  clock). */
void enablePhaseAccounting(Clock *clock = nullptr);
void disablePhaseAccounting();

namespace detail
{
/** The accounting gate: the clock spans read, or null when off. */
extern std::atomic<Clock *> phaseClock;

/** Add one span's totals to the phase.<name>.* metrics. */
void recordPhase(const std::string &name, std::uint64_t micros,
                 std::uint64_t insts);
} // namespace detail

/** RAII leaf-phase span: traces and/or records (see file doc). */
class PhaseSpan
{
  public:
    explicit PhaseSpan(const char *name, std::string trace_args = "")
        : name_(name),
          clock_(detail::phaseClock.load(std::memory_order_relaxed))
    {
        trace_ = Tracer::instance().enabled();
        if (trace_)
            Tracer::instance().begin(name_, "phase",
                                     std::move(trace_args));
        if (clock_)
            t0_ = clock_->nowMicros();
    }

    ~PhaseSpan()
    {
        if (trace_)
            Tracer::instance().end(name_, "phase");
        if (clock_)
            detail::recordPhase(name_, clock_->nowMicros() - t0_, insts_);
    }

    PhaseSpan(const PhaseSpan &) = delete;
    PhaseSpan &operator=(const PhaseSpan &) = delete;

    /** Attribute @p n executed instructions to this phase. */
    void setInsts(std::uint64_t n) { insts_ = n; }

  private:
    std::string name_;
    Clock *clock_;
    std::uint64_t t0_ = 0;
    std::uint64_t insts_ = 0;
    bool trace_ = false;
};

} // namespace reno::obs
