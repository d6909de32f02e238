/**
 * @file
 * Pipeline-subsystem tests: golden byte-identity of full SimResult
 * vectors against the pre-refactor monolithic core (squash/replay
 * included), stall-counter attribution per back-pressured resource,
 * the SimResult delta/accumulate algebra as used by the sampling
 * windows, instruction-arena recycling, the issue scheduler across a
 * misintegration flush, and idle-cycle skipping against a
 * tick-by-tick run (results, CPI stacks, hotspots, trace samples).
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "emu/emulator.hpp"
#include "harness/experiment.hpp"
#include "obs/cpistack.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sample/interval.hpp"
#include "sample/warmup.hpp"
#include "scheduler_check.hpp"
#include "sys/system.hpp"
#include "uarch/core.hpp"
#include "uarch/run_loop.hpp"
#include "workloads/workloads.hpp"

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

// A chain of loads that miss to memory, each feeding sixteen stores
// of its value: with four store issue slots the stores retire in a
// burst that fills the drain queue, and the next miss leaves the
// machine idle while the queue still drains.
const char *const storeBurstSrc = R"(
        .data
buf:    .space 131072
        .text
_start:
        la   s0, buf
        la   s2, buf
        li   s1, 300
loop:
        ldq  t0, 4096(s0)
        stq  t0, 0(s2)
        stq  t0, 8(s2)
        stq  t0, 16(s2)
        stq  t0, 24(s2)
        stq  t0, 32(s2)
        stq  t0, 40(s2)
        stq  t0, 48(s2)
        stq  t0, 56(s2)
        stq  t0, 64(s2)
        stq  t0, 72(s2)
        stq  t0, 80(s2)
        stq  t0, 88(s2)
        stq  t0, 96(s2)
        stq  t0, 104(s2)
        stq  t0, 112(s2)
        stq  t0, 120(s2)
        add  s0, s0, t0
        addi s0, s0, 200
        subi s1, s1, 1
        bne  s1, loop
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

// ---- idle-cycle skipping ---------------------------------------------------

namespace
{

/** The --trace-sample interval of the skip-vs-tick runs: prime, so
 *  sample points land inside idle stretches as well as busy ones. */
constexpr std::uint64_t SampleEvery = 997;

/** CPI accounting, hotspots and trace sampling on for one scope. */
struct ObservedScope {
    ObservedScope()
    {
        obs::CpiAccounting::instance().setStackEnabled(true);
        obs::CpiAccounting::instance().setHotspotTopN(16);
        obs::Tracer::instance().clear();
        obs::Tracer::instance().setCycleSampleInterval(SampleEvery);
        obs::Tracer::instance().start();
    }
    ~ObservedScope()
    {
        obs::Tracer::instance().stop();
        obs::Tracer::instance().clear();
        obs::Tracer::instance().setCycleSampleInterval(0);
        obs::CpiAccounting::instance().setStackEnabled(false);
        obs::CpiAccounting::instance().setHotspotTopN(0);
    }
};

/** Everything a run can be observed through. */
struct Observed {
    SimResult sim;
    std::vector<obs::CpiStack> stacks;  //!< per core
    /** Per core: every hotspot row, by stall then by retirement. */
    std::vector<std::vector<obs::HotspotProfile::Entry>> hot;
    std::vector<std::uint64_t> hotDropped;
    /** Trace counter samples in emission order: "lane {args}". */
    std::vector<std::string> samples;
};

/** Snapshot @p cores after a run and drain the trace buffer. */
Observed
observe(const SimResult &sim, const std::vector<const Core *> &cores)
{
    Observed o;
    o.sim = sim;
    for (const Core *c : cores) {
        o.stacks.push_back(*c->cpiStack());
        std::vector<obs::HotspotProfile::Entry> rows =
            c->hotspots()->topByStall(1'000'000);
        for (const auto &e : c->hotspots()->topByRetired(1'000'000))
            rows.push_back(e);
        o.hot.push_back(rows);
        o.hotDropped.push_back(c->hotspots()->dropped());
    }
    for (const obs::TraceEvent &e : obs::Tracer::instance().events()) {
        if (e.ph == obs::TraceEvent::Phase::Counter)
            o.samples.push_back(e.name + " {" + e.args + "}");
    }
    obs::Tracer::instance().clear();
    return o;
}

void
expectSameObservations(const Observed &skip, const Observed &tick,
                       const std::string &what)
{
    for (const SimStatField &f : simResultFields())
        EXPECT_EQ(statValue(skip.sim, f), statValue(tick.sim, f))
            << what << ": " << f.name;
    ASSERT_EQ(skip.stacks.size(), tick.stacks.size()) << what;
    for (std::size_t c = 0; c < skip.stacks.size(); ++c) {
        EXPECT_EQ(skip.stacks[c].cycles, tick.stacks[c].cycles)
            << what << ": core " << c << " CPI stack";
        ASSERT_EQ(skip.hot[c].size(), tick.hot[c].size()) << what;
        for (std::size_t i = 0; i < skip.hot[c].size(); ++i) {
            const auto &a = skip.hot[c][i];
            const auto &b = tick.hot[c][i];
            EXPECT_TRUE(a.pc == b.pc && a.retired == b.retired &&
                        a.stallCycles == b.stallCycles)
                << what << ": core " << c << " hotspot row " << i;
        }
        EXPECT_EQ(skip.hotDropped[c], tick.hotDropped[c]) << what;
    }
    EXPECT_FALSE(tick.samples.empty()) << what;
    EXPECT_EQ(skip.samples, tick.samples) << what;
}

/**
 * The tick-by-tick reference of runUntilRetired: one tick() per
 * cycle, counter samples on the same schedule, no skipping.
 */
template <class Machine, class Retired, class Sample>
void
tickUntilRetired(Machine &m, std::uint64_t bound, Cycle max_cycles,
                 Retired retired, Sample sample)
{
    Cycle next = (m.now() / SampleEvery + 1) * SampleEvery;
    while (!m.finished() && retired() < bound && m.now() < max_cycles) {
        m.tick();
        if (m.now() >= next) {
            sample();
            next += SampleEvery;
        }
    }
}

void
tickSystem(System &sys, std::uint64_t bound, Cycle max_cycles)
{
    tickUntilRetired(
        sys, bound, max_cycles,
        [&] {
            std::uint64_t sum = 0;
            for (unsigned i = 0; i < sys.numCores(); ++i)
                sum += sys.core(i).retiredCount();
            return sum;
        },
        [&] {
            for (unsigned i = 0; i < sys.numCores(); ++i)
                sys.core(i).sampleStatsCounter();
        });
}

std::vector<const Core *>
coresOf(const System &sys)
{
    std::vector<const Core *> cores;
    for (unsigned i = 0; i < sys.numCores(); ++i)
        cores.push_back(&sys.core(i));
    return cores;
}

/** Run @p prog on a bare Core, skipping and ticking; returns the
 *  cycles the skipping run skipped. */
std::uint64_t
expectCoreSkipMatchesTicks(const Program &prog, const CoreParams &params,
                           std::uint64_t rand_seed,
                           const std::string &what)
{
    const ObservedScope scope;
    Emulator::Options opts;
    opts.randSeed = rand_seed;

    Emulator emu_skip(prog, opts);
    Core skip(params, emu_skip);
    const Observed a = observe(skip.run(), {&skip});

    Emulator emu_tick(prog, opts);
    Core tick(params, emu_tick);
    tickUntilRetired(
        tick, ~std::uint64_t{0}, params.maxCycles,
        [&] { return tick.retiredCount(); },
        [&] { tick.sampleStatsCounter(); });
    EXPECT_EQ(tick.cyclesSkipped(), 0u);
    expectSameObservations(a, observe(tick.result(), {&tick}),
                           what + " (core)");
    return skip.cyclesSkipped();
}

/** Run @p w on a params.sys.numCores System, skipping and ticking;
 *  returns the cycles the skipping run skipped. */
std::uint64_t
expectSystemSkipMatchesTicks(const Workload &w, const CoreParams &params,
                             const std::string &what)
{
    const ObservedScope scope;
    const unsigned n = params.sys.numCores;

    EmulatorSet emus_skip = makeEmulators(w, n);
    System skip(params, emus_skip.cores);
    const Observed a = observe(skip.run(), coresOf(skip));

    EmulatorSet emus_tick = makeEmulators(w, n);
    System tick(params, emus_tick.cores);
    tickSystem(tick, ~std::uint64_t{0}, params.maxCycles);
    expectSameObservations(a, observe(tick.result(), coresOf(tick)),
                           what + " (system)");
    return skip.cyclesSkipped();
}

/** A System at @p win's start, warmed and injected exactly as
 *  sample::runIntervalDetailed builds one without a checkpoint. */
std::unique_ptr<System>
windowSystem(const Workload &w, const CoreParams &params,
             const sample::IntervalWindow &win, EmulatorSet &emus)
{
    const unsigned n = params.sys.numCores;
    emus = makeEmulators(w, n);
    sample::WarmState warm(params.mem, params.bpred, n);
    sample::warmStep(emus.cores, warm, win.startInst);
    auto sys = std::make_unique<System>(params, emus.cores);
    for (std::size_t i = 0; i < sys->numSharedLevels(); ++i) {
        sys->sharedLevel(i).copyStateFrom(warm.sharedLevel(i));
        sys->sharedLevel(i).settle();
    }
    EXPECT_TRUE(sys->bus().importState(warm.bus().exportState()));
    for (unsigned i = 0; i < n; ++i) {
        sys->core(i).memHierarchy().copyStateFrom(warm.coreMem(i));
        sys->core(i).memHierarchy().settle();
        sys->core(i).branchPredictor() = warm.coreBp(i);
    }
    return sys;
}

CoreParams
namedParams(const char *name)
{
    NamedConfig cfg;
    EXPECT_TRUE(configByName(name, CoreParams::fourWide(), &cfg)) << name;
    return cfg.params;
}

} // namespace

TEST(PipelineIdleSkip, MemKernelsSkipAndMatchTickByTick)
{
    const CoreParams params = namedParams("RENO");
    for (const char *name : {"mem.chase.1m", "mem.stream.256k"}) {
        const Workload &w = workloadByName(name);
        EXPECT_GT(expectCoreSkipMatchesTicks(assembleWorkload(w), params,
                                             w.seed, name),
                  0u)
            << name << ": a memory-bound kernel must skip cycles";
        EXPECT_GT(expectSystemSkipMatchesTicks(w, params, name), 0u)
            << name;
    }
}

TEST(PipelineIdleSkip, SquashFlushAndDrainProgramsMatchTickByTick)
{
    CoreParams p;
    p.reno = RenoConfig::full();
    const Program violation = assemble(violationSrc);
    const Program misinteg = assemble(misintegSrc);
    expectCoreSkipMatchesTicks(violation, p, 0, "store-set violations");
    expectCoreSkipMatchesTicks(misinteg, p, 0, "misintegration");
    p.reno = RenoConfig::baseline();
    expectCoreSkipMatchesTicks(violation, p, 0, "violations, baseline");

    // Idle stretches that begin with stores still in the drain queue.
    CoreParams drain;
    drain.issue.stores = 4;
    EXPECT_GT(expectCoreSkipMatchesTicks(assemble(storeBurstSrc), drain,
                                         0, "retire-port drain"),
              0u);
}

TEST(PipelineIdleSkip, MultiKernelsMatchTickByTickAtTwoAndFourCores)
{
    for (const char *config : {"RENO/2c", "RENO/4c"}) {
        const CoreParams params = namedParams(config);
        for (const Workload *w : suiteWorkloads("multi"))
            expectSystemSkipMatchesTicks(
                *w, params, w->name + " on " + config);
    }
}

TEST(PipelineIdleSkip, SampledWindowMatchesTickByTick)
{
    const CoreParams params = namedParams("RENO");
    const Workload &w = workloadByName("mem.chase.1m");
    sample::IntervalWindow win;
    win.startInst = 40'000;
    win.warmupInsts = 2'000;
    win.measureInsts = 20'000;
    const SimResult expect =
        sample::runIntervalDetailed(w, params, win, nullptr, nullptr);

    const ObservedScope scope;
    EmulatorSet emus_skip, emus_tick;
    const std::unique_ptr<System> skip =
        windowSystem(w, params, win, emus_skip);
    const std::unique_ptr<System> tick =
        windowSystem(w, params, win, emus_tick);
    const std::uint64_t end = win.warmupInsts + win.measureInsts;

    const SimResult pre = skip->runUntilRetired(win.warmupInsts);
    const SimResult post = skip->runUntilRetired(end);
    expectResultEq(sample::deltaResult(post, pre), expect,
                   "window replica");
    EXPECT_GT(skip->cyclesSkipped(), 0u);
    const Observed a = observe(post, coresOf(*skip));

    tickSystem(*tick, win.warmupInsts, params.maxCycles);
    EXPECT_EQ(tick->result().retired, pre.retired);
    tickSystem(*tick, end, params.maxCycles);
    expectSameObservations(a, observe(tick->result(), coresOf(*tick)),
                           "sampled window");
}

TEST(PipelineIdleSkipDeath, WatchdogFiresOnTheTickByTickCycle)
{
    // A memory latency beyond the watchdog's retirement-gap bound
    // looks like a deadlock: the first fetch misses to memory and
    // nothing retires for longer than the bound. Skipping must not
    // move the panic: it fires on the cycle a tick-by-tick run
    // reaches, with the same text.
    CoreParams p;
    p.mem.memory.accessLatency = 3 * RunLoop::RetireGapBound;
    const Program prog = assemble(exitOnly);

    Emulator emu(prog);
    Core ref(p, emu);
    Cycle last_progress = 0;
    std::uint64_t retired = 0;
    while (ref.now() - last_progress <= RunLoop::RetireGapBound) {
        ref.tick();
        if (ref.retiredCount() != retired) {
            retired = ref.retiredCount();
            last_progress = ref.now();
        }
    }
    const std::string cycle =
        "\\(cycle " + std::to_string(ref.now()) + ",";

    EXPECT_DEATH(
        {
            Emulator e(prog);
            Core core(p, e);
            core.run();
        },
        "no instruction retired for 100000 cycles " + cycle);
    EXPECT_DEATH(
        {
            Emulator e(prog);
            System sys(p, {&e});
            sys.run();
        },
        "no core retired an instruction for 100000 cycles " + cycle);
}
