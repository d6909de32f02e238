/**
 * @file
 * Issue stage: selects ready instructions oldest-first within the
 * per-class and total issue widths, computes completion times
 * (including RENO constant-fusion latency), schedules loads
 * aggressively under the store-set predictor, performs
 * store-to-load forwarding, and detects memory-order violations when
 * stores execute -- squashing and replaying the offending load and
 * everything younger.
 *
 * Wakeup is event-driven (see pipeline/machine_state.hpp): when an
 * instruction issues, the dependents waiting on its destination
 * register become candidates once their last source resolves, with
 * their issue cycle fixed there. Select walks the per-class candidate
 * lists merged oldest-first, so it visits only instructions whose
 * producers have all issued, and stops walking a class once that
 * class's width is used up. The memory scans walk robStores/robLoads,
 * the ROB's loads and stores in program order.
 */
#pragma once

#include "mem/hierarchy.hpp"
#include "pipeline/machine_state.hpp"
#include "pipeline/pipeline_stats.hpp"
#include "reno/renamer.hpp"
#include "uarch/params.hpp"
#include "uarch/store_sets.hpp"

namespace reno
{

class IssueStage
{
  public:
    IssueStage(const CoreParams &params, MemHierarchy &mem,
               StoreSets &ssets, RenoRenamer &renamer,
               MachineState &state, PipelineStats &stats)
        : params_(params), mem_(mem), ssets_(ssets), renamer_(renamer),
          s_(state), stats_(stats)
    {
    }

    void tick();

  private:
    /** Extra fused-operation latency for deferred displacements. */
    unsigned fusionExtra(const DynInst &d) const;

    const CoreParams &params_;
    MemHierarchy &mem_;
    StoreSets &ssets_;
    RenoRenamer &renamer_;
    MachineState &s_;
    PipelineStats &stats_;
};

} // namespace reno
