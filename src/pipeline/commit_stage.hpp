/**
 * @file
 * Commit stage: retires completed instructions in program order up to
 * the commit width, drains stores and re-executing integrated loads
 * through the single retirement port, flushes misintegrated loads
 * (stale integration-table tuples caught by retirement re-execution),
 * accounts the retirement statistics, and reports every retirement and
 * every accounted cycle to the core's observers (uarch/core_observer).
 * Retired instructions return to the arena.
 */
#pragma once

#include <vector>

#include "mem/hierarchy.hpp"
#include "pipeline/machine_state.hpp"
#include "pipeline/pipeline_stats.hpp"
#include "reno/renamer.hpp"
#include "uarch/core_observer.hpp"
#include "uarch/params.hpp"
#include "uarch/store_sets.hpp"

namespace reno
{

class CommitStage
{
  public:
    CommitStage(const CoreParams &params, RenoRenamer &renamer,
                StoreSets &ssets, MemHierarchy &mem,
                MachineState &state, PipelineStats &stats)
        : params_(params), renamer_(renamer), ssets_(ssets), mem_(mem),
          s_(state), stats_(stats)
    {
    }

    void tick();

    /** Account @p cycles idle cycles from now on as that many ticks
     *  would: the drain queue drains, and the observers see the
     *  first one reported @p cycles times (every idle cycle of a
     *  stretch looks the same). */
    void skipIdle(Cycle cycles);

    /** Append @p observer (not owned) to the observer list. */
    void observe(CoreObserver *observer) { observers_.push_back(observer); }

  private:
    const CoreParams &params_;
    RenoRenamer &renamer_;
    StoreSets &ssets_;
    MemHierarchy &mem_;
    MachineState &s_;
    PipelineStats &stats_;
    std::vector<CoreObserver *> observers_;
};

} // namespace reno
