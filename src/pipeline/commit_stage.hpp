/**
 * @file
 * Commit stage: retires completed instructions in program order up to
 * the commit width, drains stores and re-executing integrated loads
 * through the single retirement port, flushes misintegrated loads
 * (stale integration-table tuples caught by retirement re-execution),
 * accounts the retirement statistics, and notifies the retire
 * listener. Retired instructions return to the arena.
 */
#pragma once

#include "mem/hierarchy.hpp"
#include "obs/cpistack.hpp"
#include "obs/profiler.hpp"
#include "pipeline/machine_state.hpp"
#include "pipeline/pipeline_stats.hpp"
#include "reno/renamer.hpp"
#include "uarch/params.hpp"
#include "uarch/retire_listener.hpp"
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
     *  would: the drain queue drains, and the first one's CPI bucket
     *  and hotspot stall are charged @p cycles times (every idle
     *  cycle of a stretch lands in the same bucket). */
    void skipIdle(Cycle cycles);

    void setListener(RetireListener *listener) { listener_ = listener; }
    RetireListener *listener() const { return listener_; }

    /** Attach CPI-stack / hotspot accounting (either may be null).
     *  Core wires this once at construction when enabled. */
    void
    setCpi(obs::CpiStack *cpi, obs::HotspotProfile *hot)
    {
        cpi_ = cpi;
        hot_ = hot;
    }

  private:
    /** Classify this tick into exactly one CPI bucket (and charge
     *  the hotspot profiler), @p cycles times. Called once per tick,
     *  and once per idle skip, when attached. */
    void account(unsigned committed, bool retire_port_stall,
                 std::uint64_t cycles = 1);

    const CoreParams &params_;
    RenoRenamer &renamer_;
    StoreSets &ssets_;
    MemHierarchy &mem_;
    MachineState &s_;
    PipelineStats &stats_;
    RetireListener *listener_ = nullptr;
    obs::CpiStack *cpi_ = nullptr;
    obs::HotspotProfile *hot_ = nullptr;
};

} // namespace reno
