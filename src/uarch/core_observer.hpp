/**
 * @file
 * Per-core observation hook, the gem5 ProbePoint/ProbeListener idiom:
 * a Core keeps one list of observers (Core::observe) and its commit
 * stage calls every one, in attach order, for each retired instruction
 * and for each stretch of cycles it accounts. The CPI stack, the
 * hotspot profiler, the pipeline tracer and the critical-path analyzer
 * are all observers. Observers only read, so attaching any set of
 * them changes no simulated result. Lives in its own header so
 * observers depend on neither the Core facade nor the pipeline stages.
 */
#pragma once

#include <cstdint>

namespace reno
{

struct DynInst;
struct MachineState;

class CoreObserver
{
  public:
    virtual ~CoreObserver() = default;

    /** @p inst retires this cycle (called in program order). */
    virtual void onRetire(const DynInst &) {}

    /**
     * The commit stage ended a cycle with @p state as it stands
     * (state.now is that cycle), having retired @p committed
     * instructions and, when @p retirePortStall, stopped on a full
     * retire port; the @p n - 1 cycles after it look the same (an
     * idle skip reports its whole stretch at once, n > 1).
     */
    virtual void onCycles(const MachineState &, unsigned /*committed*/,
                          bool /*retirePortStall*/, std::uint64_t /*n*/)
    {
    }
};

} // namespace reno
