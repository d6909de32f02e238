/**
 * @file
 * N-core system: per-core private L1s and branch predictors over one
 * shared L2/L3 stack and main memory, kept coherent by a snooping
 * MESI bus (src/coherence/mesi.hpp).
 *
 * Each core wraps its own functional Emulator (the cores do not share
 * an address space at the functional level; coherence is a timing
 * overlay driven by the cores' address streams, see mesi.hpp). The
 * System owns the shared hierarchy, the bus and the cores; the
 * caller owns the emulators, one per core, which must outlive it.
 * The emulators default to the decoded-superblock engine
 * (src/emu/decoded.hpp) -- each core's oracle steps ride its own
 * block cache, and the streams stay bit-exact in either mode.
 *
 * Stepping is deterministic: every ticked system cycle ticks the
 * unfinished cores in core order, so all bus/shared-level state
 * mutations within a cycle are ordered by core index and the run is
 * bit-reproducible. When every unfinished core idled its last tick,
 * the run loop skips all of them, by the same count, to the earliest
 * cycle any can act (Core::idleUntil); a skipped cycle touches no
 * shared state, so skipping changes no result. A finished core
 * freezes (its coreCycles slot records its own completion time); the
 * system runs until every core has exited.
 *
 * Every detailed run goes through a System, one core included. A
 * 1-core System is cycle-identical to a bare Core that owns its whole
 * hierarchy, by construction: a one-core bus keeps no directory and
 * charges no penalty, and the shared stack is the one an owning
 * hierarchy builds (MemHierarchy::buildShared).
 */
#pragma once

#include <memory>
#include <vector>

#include "coherence/mesi.hpp"
#include "mem/main_memory.hpp"
#include "uarch/core.hpp"

namespace reno
{

/** The multi-core machine. */
class System
{
  public:
    /**
     * @param emus  one emulator per core (params.sys.numCores of
     *              them), already loaded with the per-core program.
     * fatal()s when the core count is outside [1, SysParams::MaxCores]
     * or @p emus does not match it.
     */
    System(const CoreParams &params,
           const std::vector<Emulator *> &emus);

    /** Run to completion of every core (or the cycle limit). */
    SimResult run();

    /**
     * Run until the cores' aggregate retired-instruction count (the
     * sum over every core, cumulative since construction) reaches
     * @p retired_bound, every core finishes, or the cycle limit.
     * Sampled simulation chops multi-core measurement windows at
     * aggregate-retirement boundaries with this.
     */
    SimResult runUntilRetired(std::uint64_t retired_bound);

    /** Advance exactly one system cycle: tick unfinished cores in
     *  order (the no-skip reference for tests). */
    void tick();

    /** System cycles the run loop skipped so far (host-side, reported
     *  as the sys.cycles_skipped metric; not a SimResult field). */
    std::uint64_t cyclesSkipped() const { return skipped_; }

    bool finished() const;
    Cycle now() const { return now_; }

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    Core &core(unsigned i) { return *cores_[i]; }
    const Core &core(unsigned i) const { return *cores_[i]; }
    const CoherenceBus &bus() const { return bus_; }
    /** Mutable bus access (warm-state injection before a sampled
     *  window; see src/sample/warmup.hpp). */
    CoherenceBus &bus() { return bus_; }

    /** The shared stack under the private L1s, nearest (L2) first;
     *  mutable for warm-state injection. */
    std::size_t numSharedLevels() const { return shared_.levels.size(); }
    Cache &sharedLevel(std::size_t i) { return *shared_.levels[i]; }
    const Cache &sharedLevel(std::size_t i) const
    {
        return *shared_.levels[i];
    }

    /**
     * Aggregate result: whole-machine counters are the sum over the
     * cores, cycles is the system cycle count (max, not sum), the
     * shared stack and coherence counters are accounted once, and
     * each core's cycle/retire totals land in its CoreStatSlotNames
     * slot (cores beyond the last slot aggregate into it).
     */
    SimResult result() const;

  private:
    std::uint64_t totalRetired() const;

    CoreParams params_;
    SharedStack shared_;
    CoherenceBus bus_;
    std::vector<std::unique_ptr<Core>> cores_;
    Cycle now_ = 0;
    std::uint64_t skipped_ = 0;
};

} // namespace reno
