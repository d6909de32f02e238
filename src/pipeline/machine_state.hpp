/**
 * @file
 * The explicit machine state shared by the pipeline stages: fetch
 * buffer, re-order buffer, physical-register scoreboard, queue
 * occupancies and redirect/drain bookkeeping, plus the instruction
 * arena that owns every in-flight DynInst.
 *
 * The state also keeps the scheduler the issue stage selects from,
 * so issue work follows events instead of window occupancy:
 *
 *   - per-register waiter lists (waitHead, linked through the
 *     waiting instructions): a dispatched instruction waits on the
 *     list of each source register whose producer has not issued yet.
 *     Dispatch pushes at the head, so each list runs from the
 *     youngest waiter to the oldest;
 *   - per-class issue-candidate lists (candidates): dispatched
 *     instructions none of whose sources wait any more, in program
 *     order. dispatch() puts an instruction there directly when every
 *     source is already produced; otherwise wake(), called when the
 *     producer issues, moves it there once its last source resolves.
 *     Its issue cycle is fixed at that point and stored in the
 *     instruction, so select only compares it with now;
 *   - robStores / robLoads: the ROB's memory instructions in program
 *     order (store-to-load forwarding, store-set blocking and
 *     violation detection only ever inspect these).
 *
 * Select walks the candidate lists merged oldest-first, which visits
 * every instruction that could issue in the same order as a scan of
 * the whole ROB would. A squash removes the youngest suffix of the
 * ROB, which is also the youngest part of every list; squashFrom
 * pops it from the young end (and panics if a waiter is out of
 * order).
 */
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "pipeline/inst_arena.hpp"
#include "uarch/dyninst.hpp"
#include "uarch/params.hpp"

namespace reno
{

class RenoRenamer;
class StoreSets;

/** Why fetch last stopped delivering (CPI-stack attribution). */
enum class FetchWait : std::uint8_t {
    None,      //!< delivering normally (or never stalled yet)
    Icache,    //!< waiting out an instruction-cache miss
    Redirect,  //!< refilling behind a mispredict redirect
    Squash,    //!< refilling after a pipeline squash
};

/** Issue classes; each has its own issue width and candidate list. */
enum IssuePort : unsigned { IntPort, LoadPort, StorePort, NumIssuePorts };

inline IssuePort
issuePortOf(InstClass cls)
{
    return cls == InstClass::Load    ? LoadPort
           : cls == InstClass::Store ? StorePort
                                     : IntPort;
}

/** Which resource rename last stalled on (CPI-stack attribution). */
enum class RenameStall : std::uint8_t { None, Rob, Iq, Lsq, Pregs };

struct MachineState {
    explicit MachineState(const CoreParams &params);

    InstArena arena;
    std::deque<DynInst *> fetchBuf;
    std::deque<DynInst *> rob;

    /** ROB memory instructions in program order (see file comment). */
    std::deque<DynInst *> robStores;
    std::deque<DynInst *> robLoads;

    /** Issue-candidate list endpoints (intrusive, program order). */
    struct CandidateList {
        DynInst *head = nullptr;
        DynInst *tail = nullptr;
    };

    /** Per class (IssuePort), see file comment. */
    CandidateList candidates[NumIssuePorts];

    // --- physical-register scoreboard ---------------------------------
    std::vector<Cycle> pregReady;
    std::vector<Cycle> pregIssue;
    std::vector<InstSeq> pregProducer;
    /** Per register, the youngest dispatched source waiting for its
     *  producer to issue; the list runs to older waiters through
     *  DynInst::waitNext (see file comment). */
    std::vector<WaitRef> waitHead;

    // --- queue occupancies --------------------------------------------
    unsigned iqCount = 0;
    unsigned lqCount = 0;
    unsigned sqCount = 0;
    /** Post-retirement port queue: stores and re-executing integrated
     *  loads drain at one per cycle; commit stalls only when full. */
    unsigned drainQueue = 0;

    // --- redirect / drain bookkeeping ---------------------------------
    Cycle now = 0;
    InstSeq seqCounter = 1;
    Addr lastFetchBlock = ~Addr{0};
    Cycle fetchResumeAt = 0;
    unsigned fetchBlocked = 0;  //!< unresolved mispredicted branches
    InstSeq pendingRedirectSeq = 0;  //!< branch behind the next fetch
    bool finished = false;

    /** Set by a stage whenever it does work in the current tick --
     *  retires, issues, renames, fetches or probes the I-cache, or
     *  squashes; Core::tick clears it first. A tick that leaves it
     *  clear was idle: it changed nothing but the drain queue and the
     *  per-cycle stall accounting (see Core::idleUntil). */
    bool active = false;

    // --- CPI-stack attribution hints ----------------------------------
    /** Why fetch last stopped (classifies empty-ROB cycles). */
    FetchWait fetchWait = FetchWait::None;
    /** Last rename stall reason and the cycle it was recorded; commit
     *  consults it only when `renameStallCycle + 1 == now` (rename runs
     *  after commit within a tick, so the fresh report is one cycle
     *  old when commit sees it). */
    RenameStall renameStall = RenameStall::None;
    Cycle renameStallCycle = InvalidCycle;

    /**
     * Enter a renamed, uncollapsed, non-syscall instruction into the
     * scheduler: claim its destination register in the scoreboard,
     * wait on every source whose producer has not issued, or make it
     * a candidate right away.
     */
    void dispatch(DynInst &d);

    /** The producer of @p preg issued (its pregReady/pregIssue are
     *  set): resolve the register's waiters. */
    void wake(PhysReg preg);

    /** Take an issued instruction off its candidate list. */
    void removeCandidate(DynInst &d);

    /** Index of the oldest ROB entry with seq >= @p seq (the ROB is
     *  seq-sorted). */
    std::size_t robIndexOf(InstSeq seq) const;

    /**
     * Squash ROB entries [idx, end): roll back RENO state in reverse
     * order and recycle the instructions into the fetch buffer for
     * replay starting at @p restart_cycle.
     */
    void squashFrom(std::size_t idx, Cycle restart_cycle,
                    RenoRenamer &renamer, StoreSets &ssets,
                    const CoreParams &params);

  private:
    /** Fix @p d's issue cycle from its sources' producers and insert
     *  it into its candidate list in program order. */
    void makeCandidate(DynInst &d);

    /** Scheduling-loop delay between a producer's issue and a
     *  consumer's (CoreParams::schedLoop). */
    Cycle schedLoop_;
};

} // namespace reno
