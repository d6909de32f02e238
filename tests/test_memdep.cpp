/**
 * @file
 * Memory-dependence scheduling tests at the core level: aggressive
 * load issue, violation squash-and-replay, store-set learning across
 * iterations, the regression where a younger same-set store's issue
 * must not unblock a load from an older, still-unissued store, and
 * the issue scheduler's waiter lists across a violation squash.
 */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "emu/emulator.hpp"
#include "scheduler_check.hpp"
#include "uarch/core.hpp"

using namespace reno;

namespace
{

struct CoreRun {
    SimResult sim;
    std::string output;
    std::string refOutput;
};

CoreRun
runOnCore(const std::string &src, const CoreParams &params)
{
    const Program prog = assemble(src);
    Emulator ref(prog);
    ref.run();
    Emulator emu(prog);
    Core core(params, emu);
    CoreRun out;
    out.sim = core.run();
    out.output = emu.output();
    out.refOutput = ref.output();
    return out;
}

/**
 * A loop where a store's address depends on slow work (a divide) and
 * a following load reads the same location: issued aggressively, the
 * load would read stale data every iteration. The store-set predictor
 * must learn the pair once and serialize all later iterations.
 */
const char *const conflict_loop = R"(
        .data
buf:    .space 128
        .text
_start:
        la   s0, buf
        li   s1, 500          # iterations
        li   s2, 0            # checksum
        li   s3, 1
loop:
        # slow address generation: div delays the store
        div  t0, s1, s3
        andi t0, t0, 15
        # store iteration number at a busy location
        stq  s1, 16(s0)
        # dependent load of the same location issues aggressively
        ldq  t1, 16(s0)
        add  s2, s2, t1
        subi s1, s1, 1
        bne  s1, loop
        andi s2, s2, 65535
        li   v0, 1
        mov  a0, s2
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

/**
 * Regression for the LFST visibility bug: two stores in the same
 * store set per iteration, where the OLDER store's address chain is
 * slow and the YOUNGER store issues quickly. After the younger store
 * issues (clearing the naive last-fetched-store entry), the load must
 * still wait for the older store.
 */
const char *const two_store_loop = R"(
        .data
buf:    .space 128
        .text
_start:
        la   s0, buf
        li   s1, 400
        li   s2, 0
        li   s3, 1
loop:
        # older store: slow data (divide feeds the stored value)
        div  t0, s1, s3
        stq  t0, 0(s0)
        # younger store to the same set (same static pc region),
        # immediately ready
        stq  s1, 8(s0)
        # loads of both locations
        ldq  t1, 0(s0)
        ldq  t2, 8(s0)
        add  s2, s2, t1
        add  s2, s2, t2
        subi s1, s1, 1
        bne  s1, loop
        andi s2, s2, 65535
        li   v0, 1
        mov  a0, s2
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

/**
 * Violation squashes with the scheduler's waiter lists populated: each
 * load's consumers (one of which reads the load's register twice)
 * wait on the squashed load, while older consumers of a slow divide
 * chain (mul t4, xor t7) and younger ones squashed with the load wait
 * on producers older than the load that have not issued yet. With
 * RENO the reloads also misintegrate, flushing through
 * squashFrom(0, ...).
 */
const char *const squash_wait_loop = R"(
        .data
buf:    .space 128
        .text
_start:
        la   s0, buf
        li   s1, 300
        li   s2, 0
        li   s3, 3
        li   s4, 5
loop:
        div  t5, s1, s3
        div  t6, t5, s3
        mul  t4, t6, s3
        xor  t7, t4, s1
        # slow store address: (s1 / 5) & 8 aliases the loads half the time
        div  t0, s1, s4
        andi t0, t0, 8
        add  t3, s0, t0
        stq  s1, 0(t3)
        ldq  t1, 0(s0)
        add  t2, t1, t1
        add  s2, s2, t2
        add  s2, s2, t4
        stq  s1, 8(t3)
        ldq  t1, 8(s0)
        add  t2, t1, t1
        add  s2, s2, t2
        add  s2, s2, t4
        stq  s1, 16(t3)
        ldq  t1, 16(s0)
        add  t2, t1, t1
        add  s2, s2, t2
        add  s2, s2, t7
        subi s1, s1, 1
        bne  s1, loop
        andi a0, s2, 65535
        li   v0, 1
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

} // namespace

TEST(MemDep, WakeupSurvivesViolationSquash)
{
    // Every SimResult counter is pinned to the value the full-scan
    // issue stage produced; the scheduler is cross-checked against the
    // ROB every cycle and must drain with the ROB.
    CoreParams base;
    base.reno = RenoConfig::baseline();
    const SimResult b = test::runCheckingScheduler(squash_wait_loop, base);
    EXPECT_GT(b.violationSquashes, 0u);
    EXPECT_EQ(test::nonZeroStats(b),
              "cycles=4223 retired=7212 retiredLoads=900 "
              "retiredStores=900 retiredBranches=300 "
              "violationSquashes=3 bpLookups=300 bpMispredicts=3 "
              "icacheMisses=5 dcacheMisses=1 l2Misses=4 stallIq=3259 "
              "elim0=7212 icacheHits=1196 dcacheHits=1034 l2Hits=2 "
              "dcacheMshrMerges=14 bpDirMispredicts=3 c0Cycles=4223 "
              "c0Retired=7212 ");

    CoreParams reno;
    reno.reno = RenoConfig::full();
    const SimResult r = test::runCheckingScheduler(squash_wait_loop, reno);
    EXPECT_GT(r.violationSquashes, 0u);
    EXPECT_GT(r.misintegrationFlushes, 0u);
    EXPECT_EQ(test::nonZeroStats(r),
              "cycles=18025 retired=7212 retiredLoads=900 "
              "retiredStores=900 retiredBranches=300 itAccesses=11963 "
              "itHits=2631 violationSquashes=5 "
              "misintegrationFlushes=299 bpLookups=300 bpMispredicts=3 "
              "icacheMisses=5 dcacheMisses=1 l2Misses=4 stallIq=9237 "
              "elim0=6777 elim1=3 elim2=304 elim3=128 icacheHits=1196 "
              "dcacheHits=1779 l2Hits=2 dcacheMshrMerges=7 "
              "bpDirMispredicts=3 c0Cycles=18025 c0Retired=7212 ");
}

TEST(MemDep, OutputAlwaysMatchesFunctionalReference)
{
    for (const char *src :
         {conflict_loop, two_store_loop, squash_wait_loop}) {
        const CoreRun r = runOnCore(src, CoreParams{});
        EXPECT_EQ(r.output, r.refOutput)
            << "violation replay must preserve architectural state";
    }
}

TEST(MemDep, StoreSetsLearnAfterFewViolations)
{
    const CoreRun r = runOnCore(conflict_loop, CoreParams{});
    // 500 iterations: an unlearned predictor would violate on nearly
    // every one. Learning must cap the squashes at a handful.
    EXPECT_LT(r.sim.violationSquashes, 10u);
    EXPECT_GT(r.sim.violationSquashes, 0u)
        << "the first aggressive issue should misspeculate";
}

TEST(MemDep, OlderUnissuedSameSetStoreStillBlocksLoad)
{
    const CoreRun r = runOnCore(two_store_loop, CoreParams{});
    EXPECT_EQ(r.output, r.refOutput);
    // Regression: with the last-fetched-store-only check, the younger
    // store's issue unhid the older one and the load violated every
    // iteration (hundreds of squashes).
    EXPECT_LT(r.sim.violationSquashes, 20u);
}

TEST(MemDep, ForwardingStillAllowsSameCycleIndependentLoads)
{
    // Independent load/store streams must not be serialized by the
    // predictor (no violations ever trains it).
    const char *src = R"(
        .data
a:      .space 64
b:      .space 64
        .text
_start:
        la   s0, a
        la   s1, b
        li   s2, 300
        li   t2, 5
loop:
        stq  t2, 0(s0)
        ldq  t0, 0(s1)
        add  t2, t2, t0
        subi s2, s2, 1
        bne  s2, loop
        li   v0, 0
        li   a0, 0
        syscall
)";
    const CoreRun r = runOnCore(src, CoreParams{});
    EXPECT_EQ(r.sim.violationSquashes, 0u);
}

TEST(MemDep, ViolationSquashRollsBackRenoState)
{
    CoreParams p;
    p.reno = RenoConfig::full();
    for (const char *src : {conflict_loop, two_store_loop}) {
        const CoreRun r = runOnCore(src, p);
        EXPECT_EQ(r.output, r.refOutput)
            << "squash must roll back map table and reference counts";
    }
}
