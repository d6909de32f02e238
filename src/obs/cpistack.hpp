/**
 * @file
 * Hierarchical CPI-stack cycle accounting.
 *
 * Every commit-stage tick is classified into exactly one bucket of an
 * exhaustive, mutually exclusive tree:
 *
 *   base                     committed >= 1 instruction this cycle
 *   frontend.icache          ROB empty, fetch waiting on the I-cache
 *   frontend.bpred           ROB empty behind a mispredict redirect
 *   backend.rob              head renamed+issued, draining exec latency,
 *                            or rename blocked on a full ROB
 *   backend.iq               head waiting to issue (or rename blocked
 *                            on a full issue queue)
 *   backend.pregs            rename blocked on free physical registers
 *   backend.lsq              head blocked on a memory dependence, a
 *                            store draining, or rename blocked on a
 *                            full LQ/SQ
 *   backend.dcache.l1        head is a load serviced by the L1 / a
 *                            forwarding store (port + hit latency)
 *   backend.dcache.l2        head is a load serviced by a shared level
 *   backend.dcache.mem       head is a load serviced by memory
 *   backend.coherence        head is a load delayed by the MESI bus
 *   drain                    retire-port vortex, squash refill,
 *                            startup/finish bubbles
 *
 * The accountant (CpiStackObserver, a CoreObserver) increments
 * exactly one bucket per CommitStage::tick, Core::tick calls the
 * commit stage exactly once per cycle, and an idle skip of k cycles
 * charges one bucket k times, so
 *
 *   sum(buckets) == cycles since attachment   (per core, by
 *                                              construction).
 *
 * A job attaches the accountant only when its observation request
 * asks for stacks (obs/observation.hpp); SimResult and every
 * digest/golden are untouched, so result caching stays byte-identical
 * either way.
 */
#pragma once

#include <array>
#include <cstdint>

#include "uarch/core_observer.hpp"

namespace reno::obs
{

/** One leaf of the CPI-stack tree. Keep in sync with cpiBucketName. */
enum class CpiBucket : std::uint8_t {
    Base,
    FrontIcache,
    FrontBpred,
    BackRob,
    BackIq,
    BackPregs,
    BackLsq,
    BackDcacheL1,
    BackDcacheL2,
    BackDcacheMem,
    BackCoherence,
    Drain,
};

inline constexpr std::size_t NumCpiBuckets = 12;

/** Dotted hierarchical name ("backend.dcache.l2") of a bucket. */
const char *cpiBucketName(CpiBucket b);

/** Per-core (or whole-machine) bucket totals. POD; copy freely. */
struct CpiStack {
    std::array<std::uint64_t, NumCpiBuckets> cycles{};

    void
    inc(CpiBucket b, std::uint64_t n = 1)
    {
        cycles[static_cast<std::size_t>(b)] += n;
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t c : cycles)
            sum += c;
        return sum;
    }

    std::uint64_t
    get(CpiBucket b) const
    {
        return cycles[static_cast<std::size_t>(b)];
    }

    /** This stack minus an earlier snapshot (interval accounting). */
    CpiStack
    delta(const CpiStack &pre) const
    {
        CpiStack d;
        for (std::size_t i = 0; i < NumCpiBuckets; ++i)
            d.cycles[i] = cycles[i] - pre.cycles[i];
        return d;
    }

    /** Accumulate another stack (per-core -> whole-machine). */
    void
    accumulate(const CpiStack &add)
    {
        for (std::size_t i = 0; i < NumCpiBuckets; ++i)
            cycles[i] += add.cycles[i];
    }
};

/** The bucket of one commit-stage cycle (the tree in the file
 *  comment; see CommitStage for the two per-cycle values). */
CpiBucket classifyCycle(const MachineState &state, unsigned committed,
                        bool retire_port_stall);

/** Accumulates one core's CPI stack from its attachment on. */
class CpiStackObserver : public CoreObserver
{
  public:
    void
    onCycles(const MachineState &state, unsigned committed,
             bool retire_port_stall, std::uint64_t n) override
    {
        stack_.inc(classifyCycle(state, committed, retire_port_stall), n);
    }

    const CpiStack &stack() const { return stack_; }

  private:
    CpiStack stack_;
};

} // namespace reno::obs
