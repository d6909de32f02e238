#include "pipeline/issue_stage.hpp"

#include <algorithm>

namespace reno
{

unsigned
IssueStage::fusionExtra(const DynInst &d) const
{
    if (!params_.reno.cf)
        return 0;
    const bool disp0 = d.ren.numSrcs > 0 && d.ren.src[0].disp != 0;
    // A store's data displacement collapses on the dedicated store-data
    // path adder and never delays issue.
    const bool disp1 = d.ren.numSrcs > 1 && d.ren.src[1].disp != 0 &&
                       !d.isStoreInst();
    if (!disp0 && !disp1)
        return 0;
    if (!params_.freeAddAddFusion)
        return 1;  // ablation: every fusion costs a cycle
    if (d.fusePenalty)
        return 1;  // general shift or multiply/divide input adder
    if (disp0 && disp1)
        return 1;  // both inputs displaced: augmented ALU case
    return 0;      // add-add fusion via 3-input carry-save adder
}

void
IssueStage::tick()
{
    const unsigned width[NumIssuePorts] = {
        params_.issue.intOps, params_.issue.loads, params_.issue.stores};
    unsigned used[NumIssuePorts] = {};
    unsigned used_total = 0;

    // Walk the candidate lists merged oldest-first; a class whose
    // width is used up drops out of the merge.
    DynInst *cursor[NumIssuePorts];
    for (unsigned p = 0; p < NumIssuePorts; ++p)
        cursor[p] = s_.candidates[p].head;

    while (used_total < params_.issue.total) {
        unsigned port = NumIssuePorts;
        for (unsigned p = 0; p < NumIssuePorts; ++p) {
            if (cursor[p] && used[p] < width[p] &&
                (port == NumIssuePorts ||
                 cursor[p]->seq < cursor[port]->seq))
                port = p;
        }
        if (port == NumIssuePorts)
            break;
        DynInst &d = *cursor[port];
        cursor[port] = d.issueNext;
        // An instruction woken by an issue during this walk is not
        // ready before next cycle, so the cursors may pass it by.
        if (d.readyAt > s_.now)
            continue;

        const bool is_ld = port == LoadPort;
        const bool is_st = port == StorePort;

        // Aggressive load scheduling, gated by the store-set predictor:
        // a load whose pc maps to a store set waits until every older
        // in-flight store of that set has issued. Stores issue out of
        // order within a set, so the walk finds the oldest unissued
        // one (the load's MemDep producer); a per-set "youngest
        // unissued store" would not be equivalent.
        if (is_ld) {
            const unsigned set = ssets_.setOf(d.rec.pc);
            if (set != StoreSets::InvalidSet) {
                bool blocked = false;
                InstSeq blocker = 0;
                for (const DynInst *st : s_.robStores) {
                    if (st->seq >= d.seq)
                        break;
                    if (!st->issued && st->storeSet == set) {
                        blocked = true;
                        blocker = st->seq;
                        break;
                    }
                }
                if (blocked) {
                    d.issueDom = IssueDom::MemDep;
                    d.domProducer = blocker;
                    continue;
                }
            }
        }

        // Issue.
        s_.active = true;
        d.issued = true;
        d.issueCycle = s_.now;
        d.issueDom = s_.now > d.readyAt ? IssueDom::Contention
                                        : d.readyDom;
        if (d.issueDom != IssueDom::Contention)
            d.domProducer = d.readyDomSeq;
        if (d.inIq) {
            d.inIq = false;
            --s_.iqCount;
        }
        s_.removeCandidate(d);
        ++used_total;
        ++used[port];

        const unsigned extra = fusionExtra(d);

        if (is_ld) {
            const Cycle agen = s_.now + 1 + extra;
            // Store-to-load forwarding / violation arming: find the
            // youngest older overlapping store.
            const DynInst *fwd = nullptr;
            for (const DynInst *st : s_.robStores) {
                if (st->seq >= d.seq)
                    break;
                if (st->memOverlaps(d))
                    fwd = st;
            }
            if (fwd && fwd->issued) {
                d.memLevel = MemHitLevel::Forwarded;
                d.completeCycle =
                    std::max(agen, fwd->completeCycle) +
                    params_.mem.dcache.latency;
            } else {
                // No forwarding source (or an unissued older store: the
                // aggressive issue proceeds and the store's execution
                // will catch the violation).
                if (mem_.dcacheProbe(d.rec.effAddr))
                    d.memLevel = MemHitLevel::L1;
                else if (mem_.sharedProbe(d.rec.effAddr))
                    // Any shared-level hit (L2, or an L3 in the deep
                    // configs) classifies as an on-chip cache hit for
                    // critical-path bucketing, not a memory access.
                    d.memLevel = MemHitLevel::L2;
                else
                    d.memLevel = MemHitLevel::Memory;
                d.completeCycle =
                    mem_.dataAccess(d.rec.effAddr, agen, false);
                d.cohDelayed = mem_.lastCohPenalty() > 0;
            }
        } else if (is_st) {
            // Address generation; data merges on the store-data path.
            d.completeCycle = s_.now + 1 + extra;
            ssets_.storeInactive(d.storeSet, d.seq);
        } else {
            d.completeCycle = s_.now + d.latency + extra;
        }

        if (d.ren.hasDest) {
            s_.pregReady[d.ren.destPreg] = d.completeCycle;
            s_.pregIssue[d.ren.destPreg] = d.issueCycle;
            s_.wake(d.ren.destPreg);
        }

        // Resolve a fetch-blocking mispredicted branch.
        if (d.stallsFetch) {
            d.stallsFetch = false;
            --s_.fetchBlocked;
            s_.fetchResumeAt = std::max(
                s_.fetchResumeAt,
                d.completeCycle + params_.branchResolveExtra);
            s_.pendingRedirectSeq = d.seq;
            s_.fetchWait = FetchWait::Redirect;
        }

        // A store's execution exposes memory-order violations: any
        // younger overlapping load that already issued read stale data.
        if (is_st) {
            for (DynInst *lp : s_.robLoads) {
                if (lp->seq <= d.seq)
                    continue;
                DynInst &ld = *lp;
                if (ld.issued && !ld.ren.eliminated() &&
                    ld.memOverlaps(d)) {
                    ssets_.trainViolation(ld.rec.pc, d.rec.pc);
                    ++stats_.violationSquashes;
                    s_.squashFrom(s_.robIndexOf(ld.seq), s_.now + 1,
                                  renamer_, ssets_, params_);
                    return;  // lists invalidated; end issue stage
                }
            }
        }
    }
}

} // namespace reno
