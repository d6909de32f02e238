/**
 * @file
 * Per-dynamic-instruction state carried through the timing pipeline.
 * A DynInst is created at fetch from the functional emulator's
 * ExecRecord (oracle values) and lives until retirement; on a squash
 * it is recycled into the fetch buffer for replay.
 *
 * The opcode's static properties the stages need (class, control
 * flag, access size, latency, fusion penalty) are copied out of the
 * opcode table once, at fetch (resolveStatic), so no stage queries
 * the table per cycle. The scheduler state records which sources
 * still wait on an unissued producer (MachineState's per-register
 * waiter lists) and, once every source has a producer time, the
 * cycle the instruction may issue and what determined it; the
 * instruction then sits in its class's issue-candidate list until it
 * issues.
 */
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "emu/emulator.hpp"
#include "reno/renamer.hpp"

namespace reno
{

/** Critical-path dominator classes recorded for the analyzer. */
enum class IssueDom : std::uint8_t {
    Dispatch,   //!< front-end delivery determined issue time
    Src0,       //!< waiting on source 0's producer
    Src1,       //!< waiting on source 1's producer
    MemDep,     //!< waiting on a store (forwarding or store set)
    Contention, //!< ready but lost issue arbitration
};

enum class CommitDom : std::uint8_t {
    SelfComplete,  //!< retired as soon as it completed
    PrevCommit,    //!< waited for older instructions / commit width
    RetirePort,    //!< waited for the store retirement port
};

/** Which level serviced a load (for critical-path bucketing). */
enum class MemHitLevel : std::uint8_t { None, L1, L2, Memory, Forwarded };

struct DynInst;

/** Source @p src of @p inst, as an entry of a register's waiter list
 *  (MachineState::waitHead). */
struct WaitRef {
    DynInst *inst = nullptr;
    unsigned src = 0;

    bool operator==(const WaitRef &other) const = default;
};

/** One in-flight dynamic instruction. Cache-line aligned, so the
 *  layout below decides which fields share a line. */
struct alignas(64) DynInst {
    ExecRecord rec;
    // seq, the static info and the scheduler state share one cache
    // line: select, wakeup and the candidate-list insert touch only
    // these (and the renamed sources) per instruction they visit.
    InstSeq seq = 0;

    // --- static info (resolveStatic; kept across a replay) -------------
    InstClass cls = InstClass::Syscall;
    bool control = false;       //!< any control-transfer class
    bool fusePenalty = false;   //!< OpInfo::fusePenalty
    unsigned memSize = 0;       //!< access bytes for loads/stores
    unsigned latency = 0;       //!< execute latency (loads: agen only)

    // --- scheduler state -------------------------------------------------
    /** Bit s set while source s waits in its register's waiter list
     *  for the producer to issue. */
    std::uint8_t waitMask = 0;
    /** Once no source waits: the cycle it may issue. */
    Cycle readyAt = InvalidCycle;
    /** Intrusive issue-candidate list of this instruction's class
     *  (MachineState::candidates): dispatched, every source's
     *  producer issued, not yet issued itself. */
    DynInst *issuePrev = nullptr;
    DynInst *issueNext = nullptr;
    InstSeq readyDomSeq = 0;    //!< producer behind readyDom
    IssueDom readyDom = IssueDom::Dispatch;  //!< what set readyAt
    bool inIssueList = false;
    /** For each waiting source s: the next-older waiter on the same
     *  register (the waiter list continues here). */
    WaitRef waitNext[2];

    // --- fetch state --------------------------------------------------
    Cycle fetchCycle = 0;
    Cycle fetchReady = 0;        //!< cycle it can enter rename
    bool mispredicted = false;   //!< fetch-time prediction was wrong
    bool stallsFetch = false;    //!< currently blocking new fetch
    /** Branch whose misprediction redirect this fetch followed
     *  (0 = none); used for the critical-path redirect edge. */
    InstSeq redirectFrom = 0;

    // --- rename state --------------------------------------------------
    bool renamed = false;
    Cycle renameCycle = InvalidCycle;
    Cycle readyEarliest = InvalidCycle;  //!< dispatch-done cycle
    RenameOut ren;
    bool inIq = false;
    bool inLq = false;
    bool inSq = false;
    unsigned storeSet = ~0U;     //!< store-set id for stores

    // --- execute state --------------------------------------------------
    bool issued = false;
    Cycle issueCycle = InvalidCycle;
    Cycle completeCycle = InvalidCycle;
    MemHitLevel memLevel = MemHitLevel::None;
    bool cohDelayed = false;  //!< load paid a MESI coherence penalty
    IssueDom issueDom = IssueDom::Dispatch;
    InstSeq domProducer = 0;

    // --- retire state ---------------------------------------------------
    Cycle retireCycle = InvalidCycle;
    CommitDom commitDom = CommitDom::SelfComplete;

    const Instruction &inst() const { return rec.inst; }
    bool isLoadInst() const { return cls == InstClass::Load; }
    bool isStoreInst() const { return cls == InstClass::Store; }

    /** Copy the opcode's static properties out of the opcode table. */
    void
    resolveStatic()
    {
        const OpInfo &info = opInfo(rec.inst.op);
        cls = info.cls;
        control = isControl(rec.inst.op);
        fusePenalty = info.fusePenalty;
        memSize = info.memSize;
        latency = info.latency;
    }

    bool
    completed(Cycle now) const
    {
        return completeCycle != InvalidCycle && completeCycle <= now;
    }

    /** Does [effAddr, effAddr+size) overlap @p other's access? */
    bool
    memOverlaps(const DynInst &other) const
    {
        const Addr a0 = rec.effAddr;
        const Addr a1 = a0 + memSize;
        const Addr b0 = other.rec.effAddr;
        const Addr b1 = b0 + other.memSize;
        return a0 < b1 && b0 < a1;
    }

    /**
     * Reset timing state for replay after a squash (also applied by
     * InstArena::acquire before reuse). The identity fields -- rec,
     * seq, the static info and the fetch-cycle group -- are left for
     * the caller: a squash keeps them, a fresh fetch overwrites them.
     * The caller must have unlinked the instruction from the
     * issue-candidate list and every waiter list first; the linkage
     * is cleared, not unlinked, here.
     */
    void
    resetForReplay()
    {
        issuePrev = issueNext = nullptr;
        inIssueList = false;
        mispredicted = false;
        stallsFetch = false;
        redirectFrom = 0;
        renamed = false;
        renameCycle = InvalidCycle;
        readyEarliest = InvalidCycle;
        ren = RenameOut{};
        inIq = inLq = inSq = false;
        storeSet = ~0U;
        waitMask = 0;
        waitNext[0] = waitNext[1] = WaitRef{};
        readyAt = InvalidCycle;
        readyDom = IssueDom::Dispatch;
        readyDomSeq = 0;
        issued = false;
        issueCycle = InvalidCycle;
        completeCycle = InvalidCycle;
        memLevel = MemHitLevel::None;
        cohDelayed = false;
        issueDom = IssueDom::Dispatch;
        domProducer = 0;
        retireCycle = InvalidCycle;
        commitDom = CommitDom::SelfComplete;
    }
};

} // namespace reno
