/**
 * @file
 * Bookkeeping shared by the Core and System run loops: the periodic
 * trace-counter schedule (--trace-sample), the liveness watchdog, and
 * the furthest cycle an idle skip may reach.
 *
 * Both loops tick one cycle, then let idle cores jump to their next
 * event (Core::idleUntil / Core::skipIdle), but never past
 * skipLimit(): the cycle limit, the next sample point, or the first
 * cycle at which the watchdog fires. So samples, the cycle limit and
 * a deadlock panic land on exactly the cycles a tick-by-tick run
 * reaches them at.
 */
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace reno
{

class RunLoop
{
  public:
    /** Longest retirement gap the watchdog tolerates. The longest
     *  legitimate gap is a memory-latency chain, orders of magnitude
     *  under this; a rename/retire deadlock (e.g. an unreclaimable
     *  register pool) should fail loudly, not spin to maxCycles. */
    static constexpr Cycle RetireGapBound = 100'000;

    RunLoop(Cycle now, std::uint64_t retired, Cycle max_cycles)
        : maxCycles_(max_cycles), lastRetired_(retired),
          lastProgress_(now)
    {
        // The sample interval is read once per run call: purely
        // observational, never part of CoreParams, so job digests and
        // results are unaffected.
        const obs::Tracer &tracer = obs::Tracer::instance();
        interval_ = tracer.enabled() ? tracer.cycleSampleInterval() : 0;
        if (interval_)
            nextSample_ = (now / interval_ + 1) * interval_;
    }

    /** The furthest cycle an idle skip may advance time to. */
    Cycle
    skipLimit() const
    {
        return std::min({maxCycles_, nextSample_,
                         lastProgress_ + RetireGapBound + 1});
    }

    /** True when a counter sample is due at @p now (the next one is
     *  then scheduled). */
    bool
    sampleDue(Cycle now)
    {
        if (now < nextSample_)
            return false;
        nextSample_ += interval_;
        return true;
    }

    /** Note the retired count at @p now; true once nothing has
     *  retired for more than RetireGapBound cycles. */
    bool
    stalled(Cycle now, std::uint64_t retired)
    {
        if (retired != lastRetired_) {
            lastRetired_ = retired;
            lastProgress_ = now;
            return false;
        }
        return now - lastProgress_ > RetireGapBound;
    }

  private:
    Cycle maxCycles_;
    std::uint64_t interval_ = 0;
    Cycle nextSample_ = InvalidCycle;
    std::uint64_t lastRetired_;
    Cycle lastProgress_;
};

} // namespace reno
