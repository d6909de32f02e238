/**
 * @file
 * Pipeline-subsystem tests: golden byte-identity of full SimResult
 * vectors against the pre-refactor monolithic core (squash/replay
 * included), stall-counter attribution per back-pressured resource,
 * the SimResult delta/accumulate algebra as used by the sampling
 * windows, instruction-arena recycling, and the issue scheduler
 * across a misintegration flush.
 */
#include <gtest/gtest.h>

#include <string>

#include "asm/assembler.hpp"
#include "sample/interval.hpp"
#include "emu/emulator.hpp"
#include "scheduler_check.hpp"
#include "uarch/core.hpp"

using namespace reno;

namespace
{

SimResult
runProgram(const std::string &src, const CoreParams &params)
{
    const Program prog = assemble(src);
    Emulator emu(prog);
    Core core(params, emu);
    return core.run();
}

const char *const exitOnly = "  li v0, 0\n  li a0, 0\n  syscall\n";

// Program with frequent memory-order violations (slow store address,
// overlapping load right behind it): exercises squash/replay.
const char *const violationSrc = R"(
        .data
buf:    .space 256
        .text
_start:
        la   s0, buf
        li   s1, 2000
        li   s3, 0
loop:
        mul  t0, s1, s1
        andi t0, t0, 24
        add  t1, s0, t0
        stq  s1, 0(t1)
        andi t2, s1, 24
        add  t3, s0, t2
        ldq  t4, 0(t3)
        add  s3, s3, t4
        subi s1, s1, 1
        bne  s1, loop
        mov  a0, s3
        li   v0, 1
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

// Store/reload pairs from alternating pcs: integrated loads whose
// tuples go stale, plus retirement-port (LSQ drain) pressure.
const char *const misintegSrc = R"(
        .data
slot:   .space 64
        .text
_start:
        la   s0, slot
        li   s1, 500
        li   s3, 0
loop:
        stq  s1, 8(s0)
        ldq  t0, 8(s0)
        add  s3, s3, t0
        addi t1, s1, 7
        stq  t1, 8(s0)
        ldq  t2, 8(s0)
        add  s3, s3, t2
        subi s1, s1, 1
        bne  s1, loop
        mov  a0, s3
        li   v0, 1
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

// Call-heavy kernel with stack traffic, redundant loads, moves and
// folded additions (the CoreEquivalence program from test_core).
const char *const mixedSrc = R"(
        .data
arr:    .space 1024
        .text
helper:
        subi sp, sp, 16
        stq  ra, 0(sp)
        stq  s0, 8(sp)
        mov  s0, a0
        slli t0, s0, 3
        andi t0, t0, 1016
        la   t1, arr
        add  t1, t1, t0
        ldq  t2, 0(t1)
        add  t2, t2, s0
        stq  t2, 0(t1)
        ldq  t3, 0(t1)
        mov  v0, t3
        ldq  ra, 0(sp)
        ldq  s0, 8(sp)
        addi sp, sp, 16
        ret
_start:
        li   s1, 300
        li   s2, 0
loop:
        mov  a0, s1
        subi sp, sp, 8
        stq  ra, 0(sp)
        call helper
        ldq  ra, 0(sp)
        addi sp, sp, 8
        add  s2, s2, v0
        subi s1, s1, 1
        bne  s1, loop
        mov  a0, s2
        li   v0, 1
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

} // namespace

// ---- golden byte-identity vs. the pre-refactor core --------------------
//
// The expected vectors below were produced by the monolithic
// src/uarch/core.{hpp,cpp} (commit dbd4032, before the src/pipeline/
// decomposition) on default CoreParams. Every counter of SimResult
// must match exactly: the stage decomposition, the issue-candidate
// list, the robStores/robLoads scan views and the instruction arena
// are required to be behavior-preserving, not just statistically
// close.

namespace
{

struct GoldenCase {
    const char *name;
    SimResult expect;
};

const GoldenCase ViolationGolden[] = {
    {"violation-base",
     {5913u, 20010u,
      {20010u, 0u, 0u, 0u, 0u},
      2000u, 2000u, 2000u,
      0u, 0u, 0u, 0u,
      1u, 0u,
      2000u, 3u,
      3u, 1u, 3u,
      71u, 1957u, 0u, 0u}},
    {"violation-reno",
     {5416u, 20010u,
      {18004u, 4u, 2002u, 0u, 0u},
      2000u, 2000u, 2000u,
      6009u, 0u, 0u, 0u,
      1u, 0u,
      2000u, 3u,
      3u, 1u, 3u,
      74u, 0u, 0u, 0u}},
};

const GoldenCase MisintegGolden = {
    "misinteg-reno",
    {2258u, 4510u,
     {2504u, 4u, 1002u, 0u, 1000u},
     1000u, 1000u, 500u,
     2000u, 1000u, 0u, 0u,
     0u, 0u,
     500u, 3u,
     3u, 1u, 3u,
     0u, 0u, 0u, 919u}};

const GoldenCase MixedGolden[] = {
    {"mixed-base",
     {4485u, 8108u,
      {8108u, 0u, 0u, 0u, 0u},
      1500u, 1200u, 900u,
      0u, 0u, 0u, 0u,
      4u, 0u,
      900u, 3u,
      5u, 33u, 20u,
      1925u, 0u, 0u, 0u}},
    {"mixed-reno",
     {4430u, 8108u,
      {5585u, 429u, 1152u, 0u, 942u},
      1500u, 1200u, 900u,
      3041u, 942u, 0u, 825u,
      0u, 0u,
      900u, 3u,
      5u, 33u, 20u,
      2048u, 0u, 0u, 0u}},
    {"mixed-fullit",
     {4430u, 8108u,
      {5246u, 429u, 1152u, 340u, 941u},
      1500u, 1200u, 900u,
      7525u, 1281u, 0u, 825u,
      0u, 0u,
      900u, 3u,
      5u, 33u, 20u,
      2048u, 0u, 0u, 0u}},
};

void
expectResultEq(const SimResult &got, const SimResult &want,
               const char *label)
{
    // The goldens freeze every counter that existed when they were
    // recorded: the registry prefix up to the elim array. Counters
    // appended later (the per-memory-level block) are asserted by
    // their own tests, not frozen here.
    for (const SimStatField &f : simResultFields()) {
        EXPECT_EQ(statValue(got, f), statValue(want, f))
            << label << ": counter '" << f.name << "' diverged from "
            << "the pre-refactor golden result";
        if (std::string_view(f.name) == "elim4")
            break;
    }
}

SimResult
runWithConfig(const char *src, const RenoConfig &config)
{
    CoreParams p;
    p.reno = config;
    return runProgram(src, p);
}

} // namespace

TEST(PipelineGolden, ViolationSquashReplayByteIdentical)
{
    expectResultEq(runWithConfig(violationSrc, RenoConfig::baseline()),
                   ViolationGolden[0].expect, ViolationGolden[0].name);
    expectResultEq(runWithConfig(violationSrc, RenoConfig::full()),
                   ViolationGolden[1].expect, ViolationGolden[1].name);
}

TEST(PipelineGolden, MisintegrationWorkloadByteIdentical)
{
    expectResultEq(runWithConfig(misintegSrc, RenoConfig::full()),
                   MisintegGolden.expect, MisintegGolden.name);
}

TEST(PipelineGolden, MixedKernelByteIdenticalAcrossConfigs)
{
    expectResultEq(runWithConfig(mixedSrc, RenoConfig::baseline()),
                   MixedGolden[0].expect, MixedGolden[0].name);
    expectResultEq(runWithConfig(mixedSrc, RenoConfig::full()),
                   MixedGolden[1].expect, MixedGolden[1].name);
    expectResultEq(runWithConfig(mixedSrc, RenoConfig::fullIt()),
                   MixedGolden[2].expect, MixedGolden[2].name);
}

// ---- stall-counter attribution ------------------------------------------

TEST(PipelineStalls, RobPressureChargedToStallRob)
{
    // Serial dependent cache-missing loads with a tiny ROB: rename
    // backs up on the full ROB, not on the (larger) issue queue.
    const char *src =
        ".data\nbuf: .space 262144\n.text\n"
        "  la s0, buf\n  li s1, 4000\n"
        "loop:\n"
        "  ldq t0, 0(s0)\n"
        "  add s0, s0, t0\n"
        "  addi s0, s0, 64\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    p.robEntries = 8;
    p.iqEntries = 50;
    const SimResult r = runProgram(src, p);
    EXPECT_GT(r.stallRob, 0u);
    EXPECT_EQ(r.stallIq, 0u)
        << "the ROB (8) fills before the issue queue (50) can";
}

TEST(PipelineStalls, IqPressureChargedToStallIq)
{
    // A long multiply dependence chain with a tiny issue queue inside
    // a big ROB: unissued work piles up in the IQ.
    const char *src =
        "  li s1, 2000\n  li t0, 3\n"
        "loop:\n"
        "  mul t0, t0, t0\n"
        "  mul t0, t0, t0\n"
        "  mul t0, t0, t0\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    p.iqEntries = 4;
    const SimResult r = runProgram(src, p);
    EXPECT_GT(r.stallIq, 0u);
    EXPECT_EQ(r.stallRob, 0u);
}

TEST(PipelineStalls, PregPressureChargedToStallPregs)
{
    // Every instruction writes a register; with barely more physical
    // registers than architectural ones, rename starves for pregs.
    const char *src =
        "  li s1, 2000\n  li t0, 3\n"
        "loop:\n"
        "  mul t1, t0, t0\n"
        "  mul t2, t1, t1\n"
        "  mul t3, t2, t2\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    p.numPregs = NumLogRegs + 2;
    const SimResult r = runProgram(src, p);
    EXPECT_GT(r.stallPregs, 0u);
}

TEST(PipelineStalls, StoreQueuePressureChargedToStallLsq)
{
    const char *src =
        ".data\nbuf: .space 4096\n.text\n"
        "  la s0, buf\n  li s1, 2000\n"
        "loop:\n"
        "  stq s1, 0(s0)\n"
        "  stq s1, 8(s0)\n"
        "  stq s1, 16(s0)\n"
        "  stq s1, 24(s0)\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    CoreParams p;
    p.sqEntries = 2;
    const SimResult r = runProgram(src, p);
    EXPECT_GT(r.stallLsq, 0u);
}

// ---- SimResult window algebra -------------------------------------------

TEST(PipelineStatSet, WindowDeltasMatchFullRun)
{
    // Two windows over one run: boundary-snapshot deltas must
    // accumulate to the final totals (what runIntervalDetailed relies
    // on).
    const Program prog = assemble(mixedSrc);
    Emulator emu(prog);
    CoreParams p;
    p.reno = RenoConfig::full();
    Core core(p, emu);

    const SimResult r0 = core.result();
    core.runUntilRetired(3000);
    const SimResult r1 = core.result();
    core.run();
    const SimResult r2 = core.result();

    SimResult acc;
    sample::accumulateResult(acc, sample::deltaResult(r1, r0));
    sample::accumulateResult(acc, sample::deltaResult(r2, r1));
    expectResultEq(acc, r2, "window-accumulate");
}

// ---- instruction arena ---------------------------------------------------

TEST(PipelineArena, RecyclesInsteadOfGrowing)
{
    // Thousands of retired instructions and violation squash/replay
    // churn, yet the in-flight population never exceeds one slab.
    const Program prog = assemble(violationSrc);
    Emulator emu(prog);
    CoreParams p;
    p.reno = RenoConfig::full();
    Core core(p, emu);
    const SimResult r = core.run();
    EXPECT_GT(r.retired, 10000u);
    EXPECT_EQ(core.machineState().arena.slabCount(), 1u);
}

TEST(PipelineArena, AcquireReturnsResetSlots)
{
    InstArena arena;
    DynInst *a = arena.acquire();
    a->renamed = true;
    a->issued = true;
    a->seq = 7;
    arena.release(a);
    DynInst *b = arena.acquire();
    ASSERT_EQ(a, b) << "LIFO recycling should hand back the same slot";
    EXPECT_FALSE(b->renamed);
    EXPECT_FALSE(b->issued);
    EXPECT_FALSE(b->inIssueList);
}

// ---- issue scheduler -----------------------------------------------------

TEST(PipelineScheduler, WakeupSurvivesMisintegrationFlush)
{
    // Each iteration's reload integrates the previous iteration's load
    // tuple although a store to the same address (through another
    // base register) intervened: it misintegrates and its retirement
    // flushes the whole ROB through squashFrom(0, ...), while younger
    // consumers of the load (one reading it twice) and of a slow
    // divide are waiting. Every counter is pinned to the value the
    // full-scan issue stage produced.
    const char *src = R"(
        .data
slot:   .space 64
        .text
_start:
        la   s0, slot
        li   s1, 400
        li   s3, 0
        li   s4, 3
loop:
        div  t4, s1, s4
        andi t0, s1, 0
        add  t3, s0, t0
        stq  s1, 0(t3)
        ldq  t1, 0(s0)
        add  t2, t1, t1
        add  s3, s3, t2
        add  s3, s3, t4
        subi s1, s1, 1
        bne  s1, loop
        mov  a0, s3
        li   v0, 1
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";
    CoreParams p;
    p.reno = RenoConfig::full();
    const SimResult r = test::runCheckingScheduler(src, p);
    EXPECT_EQ(r.misintegrationFlushes, 399u);
    EXPECT_EQ(test::nonZeroStats(r),
              "cycles=12640 retired=4011 retiredLoads=400 "
              "retiredStores=400 retiredBranches=400 itAccesses=10652 "
              "itHits=1974 violationSquashes=1 "
              "misintegrationFlushes=399 bpLookups=400 bpMispredicts=3 "
              "icacheMisses=3 dcacheMisses=1 l2Misses=3 stallRob=81 "
              "elim0=3604 elim1=4 elim2=403 icacheHits=798 "
              "dcacheHits=1194 l2Hits=1 dcacheMshrMerges=4 "
              "bpDirMispredicts=3 c0Cycles=12640 c0Retired=4011 ");
}

TEST(PipelineScheduler, GoldenKernelsKeepTheSchedulerConsistent)
{
    // The golden programs, cross-checked every cycle.
    for (const char *src : {violationSrc, misintegSrc, mixedSrc}) {
        for (const RenoConfig &c :
             {RenoConfig::baseline(), RenoConfig::full()}) {
            CoreParams p;
            p.reno = c;
            test::runCheckingScheduler(src, p);
        }
    }
}

TEST(PipelineFacade, TrivialProgramStillWorks)
{
    const SimResult r = runProgram(exitOnly, CoreParams{});
    EXPECT_EQ(r.retired, 3u);
    EXPECT_GT(r.cycles, 0u);
}
