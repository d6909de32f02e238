/**
 * @file
 * Cycle-level out-of-order core with a RENO renamer.
 *
 * The model is functional-first (SimpleScalar style): a functional
 * emulator produces the correct-path dynamic instruction stream and
 * oracle values; this core models the timing of fetch, rename,
 * dispatch, issue, execution and retirement around that stream.
 * Wrong-path fetch contents are not simulated; a branch misprediction
 * stalls fetch until the branch resolves, charging the full redirect
 * and refill latency.
 *
 * Squashes that replay *correct-path* work are modeled exactly:
 * memory-order violations (store-sets misses) and load misintegration
 * (stale integration-table tuples, which real hardware catches by
 * retirement re-execution) flush the pipeline behind the offender and
 * refetch, rolling back RENO map-table, reference-count and IT state.
 *
 * Core itself is a thin facade: the machine state lives in
 * pipeline/machine_state.hpp, the four stage units in
 * src/pipeline/{fetch,rename,issue,commit}_stage.*, and the
 * pipeline's counters in PipelineStats (pipeline/pipeline_stats.hpp),
 * published through result() under the SimResult field registry's
 * names. Core wires them together; tick() drives one stage pass and
 * advances exactly one cycle.
 *
 * The run loops (here and in sys/system.hpp) skip idle cycles. A tick
 * in which no stage did any work (MachineState::active stays clear)
 * leaves the machine frozen until the earliest of: the ROB head's
 * completion, an issue candidate's ready cycle, the fetch-buffer
 * head's arrival at rename, or the end of a fetch stall. Every cycle
 * before that would tick identically, so idleUntil() names that
 * cycle and skipIdle() accounts the cycles in between exactly as
 * ticks would (drain queue, rename stall counters, CPI bucket and
 * hotspot stall): results, CPI stacks and trace samples match a
 * tick-by-tick run.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bpred/predictor.hpp"
#include "emu/emulator.hpp"
#include "mem/hierarchy.hpp"
#include "obs/cpistack.hpp"
#include "obs/profiler.hpp"
#include "pipeline/commit_stage.hpp"
#include "pipeline/fetch_stage.hpp"
#include "pipeline/issue_stage.hpp"
#include "pipeline/machine_state.hpp"
#include "pipeline/pipeline_stats.hpp"
#include "pipeline/rename_stage.hpp"
#include "reno/renamer.hpp"
#include "uarch/dyninst.hpp"
#include "uarch/params.hpp"
#include "uarch/retire_listener.hpp"
#include "uarch/sim_result.hpp"
#include "uarch/store_sets.hpp"

namespace reno
{

/** The out-of-order core. */
class Core
{
  public:
    /**
     * @param attach  null for a standalone core that owns its whole
     *                hierarchy (unit tests, tools); non-null inside a
     *                System (every harness run, one core included),
     *                where the core builds only its private L1s and
     *                bpred stack over the System's shared hierarchy
     *                and coherence bus.
     */
    Core(const CoreParams &params, Emulator &emu,
         const MemHierarchy::Attach *attach = nullptr);

    /** Run to program completion (or the cycle limit). */
    SimResult run();

    /**
     * Run until at least @p retired_bound instructions have retired,
     * the program completes, or the cycle limit is reached. Sampled
     * simulation uses this to delimit warmup and measurement windows:
     * stats are monotonic counters, so a window's contribution is the
     * difference of result() snapshots at its bounds. May overshoot
     * the bound by up to commitWidth-1 instructions (one commit
     * group); the caller reads the exact count from result().
     */
    SimResult runUntilRetired(std::uint64_t retired_bound);

    /** Advance exactly one cycle (the no-skip reference for tests). */
    void tick();

    /**
     * The first cycle at which a stage can act again: now() unless
     * the last tick was idle, else the machine's next event (see the
     * file comment); InvalidCycle when nothing is pending at all (a
     * deadlock, which the run loop's watchdog reports).
     */
    Cycle
    idleUntil() const
    {
        return state_.active ? state_.now : nextEvent();
    }

    /** Advance @p cycles idle cycles, accounting each exactly as a
     *  tick would. Requires now() + cycles <= idleUntil(). */
    void skipIdle(Cycle cycles);

    /** Cycles skipped by skipIdle() so far (host-side counter, not a
     *  SimResult field). */
    std::uint64_t cyclesSkipped() const { return skipped_; }

    bool finished() const { return state_.finished; }
    Cycle now() const { return state_.now; }
    std::uint64_t retiredCount() const { return stats_.retired; }

    RenoRenamer &renamer() { return renamer_; }
    const RenoRenamer &renamer() const { return renamer_; }
    MemHierarchy &memHierarchy() { return mem_; }
    BranchPredictor &branchPredictor() { return bp_; }

    void setRetireListener(RetireListener *listener)
    {
        commit_.setListener(listener);
    }

    /** Current result snapshot (valid mid-run too). */
    SimResult result() const;

    /** The explicit machine state (tests, visualization). */
    const MachineState &machineState() const { return state_; }

    /** CPI-stack accountant (null unless CpiAccounting enabled it at
     *  construction). Sum of its buckets == now() by construction. */
    const obs::CpiStack *cpiStack() const { return cpi_.get(); }
    /** Hotspot profiler (null unless enabled at construction). */
    const obs::HotspotProfile *hotspots() const { return hot_.get(); }

    /** Emit result() as one trace counter sample, every
     *  SimResultFields entry under its registry name, on this core's
     *  lane ("core.stats", or "core<i>.stats" inside a System).
     *  run()/runUntilRetired() call it on the --trace-sample
     *  interval; a System drives it directly from its own loop. */
    void sampleStatsCounter();

  private:
    /** idleUntil() after an idle tick. */
    Cycle nextEvent() const;

    CoreParams params_;
    Emulator &emu_;
    RenoRenamer renamer_;
    MemHierarchy mem_;
    BranchPredictor bp_;
    StoreSets ssets_;

    MachineState state_;
    PipelineStats stats_;
    /** Trace counter lane of sampleStatsCounter(). */
    std::string statsLane_;
    std::uint64_t skipped_ = 0;

    /** CPI accounting, allocated only when CpiAccounting says so at
     *  construction -- a disabled run never touches these. */
    std::unique_ptr<obs::CpiStack> cpi_;
    std::unique_ptr<obs::HotspotProfile> hot_;

    FetchStage fetch_;
    RenameStage rename_;
    IssueStage issue_;
    CommitStage commit_;
};

} // namespace reno
