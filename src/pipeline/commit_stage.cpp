#include "pipeline/commit_stage.hpp"

#include <algorithm>

namespace reno
{

void
CommitStage::tick()
{
    // One retirement port: retired stores and re-executing integrated
    // loads drain from a post-retirement queue at one per cycle.
    // Retirement itself stalls only when that queue is full (sustained
    // demand above one per cycle -- the "vortex" effect, section 4.3).
    if (s_.drainQueue > 0)
        --s_.drainQueue;

    unsigned committed = 0;
    bool retire_port_stall = false;
    while (committed < params_.commitWidth && !s_.rob.empty()) {
        DynInst &d = *s_.rob.front();
        if (!d.renamed || !d.completed(s_.now))
            break;

        const bool elim_load =
            d.isLoadInst() && (d.ren.elim == ElimKind::Cse ||
                               d.ren.elim == ElimKind::Ra);

        // Stores write the cache at retirement; integrated loads
        // re-execute for verification. Both share one retirement port.
        if (d.isStoreInst() || elim_load) {
            if (s_.drainQueue >= params_.sqEntries) {
                d.commitDom = CommitDom::RetirePort;
                retire_port_stall = true;
                break;
            }
            ++s_.drainQueue;
            mem_.dataAccess(d.rec.effAddr, s_.now, d.isStoreInst());
        }

        if (elim_load && d.ren.misintegrated) {
            // Re-execution caught a stale integration: flush this load
            // and everything younger, refetch. The stale IT tuple was
            // already invalidated, so the replay renames normally.
            ++stats_.misintegrationFlushes;
            s_.squashFrom(0, s_.now + 1, renamer_, ssets_, params_);
            break;
        }

        d.retireCycle = s_.now;
        if (d.commitDom != CommitDom::RetirePort) {
            d.commitDom = d.completeCycle == s_.now
                ? CommitDom::SelfComplete : CommitDom::PrevCommit;
        }

        renamer_.retire(d.ren);
        if (d.inLq)
            --s_.lqCount;
        if (d.inSq) {
            --s_.sqCount;
            ssets_.storeInactive(d.storeSet, d.seq);
        }

        ++stats_.retired;
        ++stats_.retiredElim[static_cast<unsigned>(d.ren.elim)];
        if (d.isLoadInst())
            ++stats_.retiredLoads;
        if (d.isStoreInst())
            ++stats_.retiredStores;
        if (d.control)
            ++stats_.retiredBranches;

        for (CoreObserver *o : observers_)
            o->onRetire(d);

        const bool exited = d.rec.exited;
        if (d.isLoadInst())
            s_.robLoads.pop_front();
        if (d.isStoreInst())
            s_.robStores.pop_front();
        s_.rob.pop_front();
        s_.arena.release(&d);
        ++committed;
        if (exited) {
            s_.finished = true;
            break;
        }
    }
    if (committed > 0)
        s_.active = true;

    for (CoreObserver *o : observers_)
        o->onCycles(s_, committed, retire_port_stall, 1);
}

void
CommitStage::skipIdle(Cycle cycles)
{
    s_.drainQueue -= static_cast<unsigned>(
        std::min<Cycle>(cycles, s_.drainQueue));
    for (CoreObserver *o : observers_)
        o->onCycles(s_, 0, false, cycles);
}

} // namespace reno
