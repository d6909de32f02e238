/**
 * @file
 * Test helpers for the issue scheduler (pipeline/machine_state.hpp):
 * run a program one cycle at a time while checking that the waiter
 * lists and candidate lists describe exactly the machine's state, and
 * render a SimResult as a pinnable string.
 */
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "asm/assembler.hpp"
#include "emu/emulator.hpp"
#include "uarch/core.hpp"

namespace reno::test
{

/**
 * Cross-check the scheduler against the ROB; returns "" when
 * consistent, else the first violation. A dispatched, unissued
 * instruction must wait on exactly the sources whose producer has not
 * issued (pregReady unset), be a candidate exactly when it waits on
 * none, with the issue cycle its sources give now, and every list
 * must be in program order.
 */
inline std::string
schedulerError(const MachineState &s, const CoreParams &params)
{
    std::size_t waits = 0;
    std::size_t candidates = 0;
    for (const DynInst *d : s.rob) {
        const bool dispatched = d->inIq;
        for (unsigned i = 0; i < d->ren.numSrcs && dispatched; ++i) {
            const bool waiting = d->waitMask & (1U << i);
            const bool produced =
                s.pregReady[d->ren.src[i].preg] != InvalidCycle;
            if (waiting == produced)
                return "seq " + std::to_string(d->seq) + " source " +
                       std::to_string(i) + ": waiting " +
                       std::to_string(waiting) + " but produced " +
                       std::to_string(produced);
        }
        if (!dispatched && d->waitMask != 0)
            return "seq " + std::to_string(d->seq) +
                   " waits but is not in the issue queue";
        if (d->inIssueList != (dispatched && d->waitMask == 0))
            return "seq " + std::to_string(d->seq) +
                   " candidate-list membership is wrong";
        if (d->inIssueList) {
            Cycle ready = d->readyEarliest;
            for (unsigned i = 0; i < d->ren.numSrcs; ++i) {
                const PhysReg p = d->ren.src[i].preg;
                Cycle t = s.pregReady[p];
                if (s.pregIssue[p] != InvalidCycle)
                    t = std::max(t, s.pregIssue[p] + params.schedLoop);
                ready = std::max(ready, t);
            }
            if (ready != d->readyAt)
                return "seq " + std::to_string(d->seq) + " readyAt " +
                       std::to_string(d->readyAt) + " but sources say " +
                       std::to_string(ready);
        }
        waits += static_cast<std::size_t>(std::popcount(d->waitMask));
        candidates += d->inIssueList;
    }
    std::size_t listed_waits = 0;
    for (std::size_t p = 0; p < s.waitHead.size(); ++p) {
        const DynInst *younger = nullptr;
        for (WaitRef w = s.waitHead[p]; w.inst;
             w = w.inst->waitNext[w.src]) {
            if (younger && w.inst->seq > younger->seq)
                return "waiter list out of program order";
            if (!(w.inst->waitMask & (1U << w.src)) ||
                w.inst->ren.src[w.src].preg != p)
                return "stale waiter seq " + std::to_string(w.inst->seq);
            younger = w.inst;
            ++listed_waits;
        }
    }
    if (listed_waits != waits)
        return "waiter lists hold " + std::to_string(listed_waits) +
               " entries for " + std::to_string(waits) + " waits";
    std::size_t listed = 0;
    for (const MachineState::CandidateList &l : s.candidates) {
        for (const DynInst *d = l.head; d; d = d->issueNext) {
            if (d->issueNext && d->issueNext->seq < d->seq)
                return "candidate list out of program order";
            ++listed;
        }
    }
    if (listed != candidates)
        return "candidate lists hold " + std::to_string(listed) +
               " entries for " + std::to_string(candidates) +
               " candidates";
    return "";
}

/** Everything drained: empty ROB, waiter lists and candidate lists. */
inline void
expectSchedulerDrained(const MachineState &s)
{
    EXPECT_TRUE(s.rob.empty());
    for (const WaitRef &head : s.waitHead)
        EXPECT_EQ(head.inst, nullptr);
    for (const MachineState::CandidateList &l : s.candidates) {
        EXPECT_EQ(l.head, nullptr);
        EXPECT_EQ(l.tail, nullptr);
    }
}

/**
 * Run @p src to completion one tick at a time, checking
 * schedulerError() after every cycle and the drained state at the
 * end. Returns the final result (identical to Core::run()'s).
 */
inline SimResult
runCheckingScheduler(const std::string &src, const CoreParams &params)
{
    const Program prog = assemble(src);
    Emulator emu(prog);
    Core core(params, emu);
    while (!core.finished() && core.now() < params.maxCycles) {
        core.tick();
        const std::string err =
            schedulerError(core.machineState(), params);
        if (!err.empty()) {
            ADD_FAILURE() << "cycle " << core.now() << ": " << err;
            break;
        }
    }
    EXPECT_TRUE(core.finished());
    expectSchedulerDrained(core.machineState());
    return core.result();
}

/** Every nonzero SimResult registry field as "name=value ...". */
inline std::string
nonZeroStats(const SimResult &r)
{
    std::string out;
    for (const SimStatField &f : simResultFields()) {
        if (const std::uint64_t v = statValue(r, f))
            out += std::string(f.name) + "=" + std::to_string(v) + " ";
    }
    return out;
}

} // namespace reno::test
