#include "pipeline/machine_state.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "reno/renamer.hpp"
#include "uarch/store_sets.hpp"

namespace reno
{

MachineState::MachineState(const CoreParams &params)
    : pregReady(params.numPregs, 0),
      pregIssue(params.numPregs, InvalidCycle),
      pregProducer(params.numPregs, 0),
      waitHead(params.numPregs),
      schedLoop_(params.schedLoop)
{
}

void
MachineState::dispatch(DynInst &d)
{
    if (d.ren.hasDest) {
        const PhysReg dest = d.ren.destPreg;
        if (waitHead[dest].inst)
            panic("dispatch: p%u allocated with waiters still queued",
                  static_cast<unsigned>(dest));
        pregReady[dest] = InvalidCycle;
        pregIssue[dest] = InvalidCycle;
        pregProducer[dest] = d.seq;
    }
    for (unsigned s = 0; s < d.ren.numSrcs; ++s) {
        const PhysReg p = d.ren.src[s].preg;
        if (pregReady[p] == InvalidCycle) {
            d.waitNext[s] = waitHead[p];
            waitHead[p] = WaitRef{&d, s};
            d.waitMask |= static_cast<std::uint8_t>(1U << s);
        }
    }
    if (d.waitMask == 0)
        makeCandidate(d);
}

void
MachineState::wake(PhysReg preg)
{
    for (WaitRef w = waitHead[preg]; w.inst;) {
        DynInst &d = *w.inst;
        d.waitMask &= static_cast<std::uint8_t>(~(1U << w.src));
        w = d.waitNext[w.src];
        if (d.waitMask == 0)
            makeCandidate(d);
    }
    waitHead[preg] = WaitRef{};
}

void
MachineState::makeCandidate(DynInst &d)
{
    // Issue cycle: the dispatch pipe, then each source's producer
    // result, honoring the scheduling loop. Every producer has issued,
    // so these times are final. A strictly later source takes over
    // the dominator, so ties go to the earlier one.
    Cycle earliest = d.readyEarliest;
    IssueDom dom = IssueDom::Dispatch;
    InstSeq dom_seq = 0;
    for (unsigned s = 0; s < d.ren.numSrcs; ++s) {
        const PhysReg p = d.ren.src[s].preg;
        Cycle t = pregReady[p];
        if (pregIssue[p] != InvalidCycle)
            t = std::max(t, pregIssue[p] + schedLoop_);
        if (t > earliest) {
            earliest = t;
            dom = s == 0 ? IssueDom::Src0 : IssueDom::Src1;
            dom_seq = pregProducer[p];
        }
    }
    d.readyAt = earliest;
    d.readyDom = dom;
    d.readyDomSeq = dom_seq;

    // Program-order insert, searching from the young end: the woken
    // instruction is usually younger than most waiting candidates.
    CandidateList &l = candidates[issuePortOf(d.cls)];
    DynInst *prev = l.tail;
    while (prev && prev->seq > d.seq)
        prev = prev->issuePrev;
    d.issuePrev = prev;
    d.issueNext = prev ? prev->issueNext : l.head;
    if (d.issueNext)
        d.issueNext->issuePrev = &d;
    else
        l.tail = &d;
    if (prev)
        prev->issueNext = &d;
    else
        l.head = &d;
    d.inIssueList = true;
}

void
MachineState::removeCandidate(DynInst &d)
{
    CandidateList &l = candidates[issuePortOf(d.cls)];
    if (d.issuePrev)
        d.issuePrev->issueNext = d.issueNext;
    else
        l.head = d.issueNext;
    if (d.issueNext)
        d.issueNext->issuePrev = d.issuePrev;
    else
        l.tail = d.issuePrev;
    d.issuePrev = d.issueNext = nullptr;
    d.inIssueList = false;
}

std::size_t
MachineState::robIndexOf(InstSeq seq) const
{
    const auto it = std::lower_bound(
        rob.begin(), rob.end(), seq,
        [](const DynInst *d, InstSeq s) { return d->seq < s; });
    return static_cast<std::size_t>(it - rob.begin());
}

void
MachineState::squashFrom(std::size_t idx, Cycle restart_cycle,
                         RenoRenamer &renamer, StoreSets &ssets,
                         const CoreParams &params)
{
    // Roll back RENO state youngest-first. The squashed instructions
    // are the youngest suffix of every derived view and waiter list,
    // so those shrink from the back in lockstep.
    for (std::size_t j = rob.size(); j-- > idx;) {
        DynInst &d = *rob[j];
        renamer.rollback(d.inst(), d.ren);
        if (d.inIq)
            --iqCount;
        if (d.inLq)
            --lqCount;
        if (d.inSq) {
            --sqCount;
            ssets.storeInactive(d.storeSet, d.seq);
        }
        if (d.stallsFetch)
            --fetchBlocked;
        if (d.inIssueList)
            removeCandidate(d);
        for (unsigned s = d.ren.numSrcs; s-- > 0;) {
            if (!(d.waitMask & (1U << s)))
                continue;
            WaitRef &head = waitHead[d.ren.src[s].preg];
            if (head != WaitRef{&d, s})
                panic("squashFrom: seq %llu's source %u is not the "
                      "youngest waiter of p%u",
                      static_cast<unsigned long long>(d.seq), s,
                      static_cast<unsigned>(d.ren.src[s].preg));
            head = d.waitNext[s];
        }
        if (d.isStoreInst())
            robStores.pop_back();
        if (d.isLoadInst())
            robLoads.pop_back();
        d.resetForReplay();
        d.fetchCycle = restart_cycle;
        d.fetchReady = restart_cycle + params.frontDepth;
    }
    // Recycle into the fetch buffer, preserving program order.
    fetchBuf.insert(fetchBuf.begin(),
                    rob.begin() + static_cast<long>(idx), rob.end());
    rob.erase(rob.begin() + static_cast<long>(idx), rob.end());
    fetchWait = FetchWait::Squash;
    active = true;
}

} // namespace reno
