/**
 * @file
 * Critical-path analyzer tests: bucket accounting on synthetic
 * retirement streams and end-to-end behavior on microbenchmarks with
 * known bottlenecks.
 */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "cpa/critpath.hpp"
#include "uarch/core.hpp"
#include "emu/emulator.hpp"

using namespace reno;

namespace
{

/** Build a synthetic retired DynInst. */
DynInst
retiredInst(InstSeq seq, Cycle f, Cycle i, Cycle e, Cycle c,
            IssueDom dom, InstSeq producer, CommitDom cdom,
            InstClass cls = InstClass::IntAlu)
{
    DynInst d;
    d.seq = seq;
    d.renameCycle = f;
    d.issued = true;
    d.issueCycle = i;
    d.completeCycle = e;
    d.retireCycle = c;
    d.issueDom = dom;
    d.domProducer = producer;
    d.commitDom = cdom;
    Instruction inst;
    inst.op = cls == InstClass::Load ? Opcode::LDQ : Opcode::ADD;
    inst.rc = 1;
    d.rec.inst = inst;
    return d;
}

std::array<double, NumCpBuckets>
runCritpath(const std::string &src, const CoreParams &params)
{
    const Program prog = assemble(src);
    Emulator emu(prog);
    Core core(params, emu);
    CriticalPathAnalyzer cpa(1'000'000, params.robEntries,
                             params.iqEntries);
    core.observe(&cpa);
    core.run();
    cpa.finish();
    return cpa.breakdown();
}

} // namespace

TEST(Cpa, BucketNames)
{
    EXPECT_STREQ(cpBucketName(CpBucket::Fetch), "fetch");
    EXPECT_STREQ(cpBucketName(CpBucket::AluExec), "alu_exec");
    EXPECT_STREQ(cpBucketName(CpBucket::LoadExec), "load_exec");
    EXPECT_STREQ(cpBucketName(CpBucket::LoadMem), "load_mem");
    EXPECT_STREQ(cpBucketName(CpBucket::Commit), "commit");
}

TEST(Cpa, EmptyStreamIsHarmless)
{
    CriticalPathAnalyzer cpa;
    cpa.finish();
    EXPECT_EQ(cpa.totalWeight(), 0u);
    for (const double x : cpa.breakdown())
        EXPECT_EQ(x, 0.0);
}

TEST(Cpa, DependentChainChargesAluBucket)
{
    CriticalPathAnalyzer cpa(1000, 128, 50);
    // 10 instructions, each issuing right after its predecessor's
    // completion: a pure ALU dependence chain.
    Cycle t = 10;
    for (InstSeq s = 1; s <= 10; ++s) {
        cpa.onRetire(retiredInst(
            s, /*f=*/1, /*i=*/t, /*e=*/t + 1, /*c=*/t + 2,
            s == 1 ? IssueDom::Dispatch : IssueDom::Src0, s - 1,
            CommitDom::SelfComplete));
        t += 1;
    }
    cpa.finish();
    const auto b = cpa.breakdown();
    EXPECT_GT(b[static_cast<unsigned>(CpBucket::AluExec)], 0.4);
}

TEST(Cpa, LoadLatencyChargesLoadBuckets)
{
    CriticalPathAnalyzer cpa(1000, 128, 50);
    // Chain of loads each missing to memory (100 cycles), L1-level.
    Cycle t = 10;
    for (InstSeq s = 1; s <= 10; ++s) {
        DynInst d = retiredInst(
            s, 1, t, t + 100, t + 101,
            s == 1 ? IssueDom::Dispatch : IssueDom::Src0, s - 1,
            CommitDom::SelfComplete, InstClass::Load);
        d.memLevel = MemHitLevel::Memory;
        cpa.onRetire(d);
        t += 100;
    }
    cpa.finish();
    const auto b = cpa.breakdown();
    EXPECT_GT(b[static_cast<unsigned>(CpBucket::LoadMem)], 0.8);
}

TEST(Cpa, FetchBoundStreamChargesFetch)
{
    CriticalPathAnalyzer cpa(1000, 128, 50);
    // Instructions rename 1/cycle and execute instantly: in-order
    // fetch is the only constraint.
    for (InstSeq s = 1; s <= 50; ++s) {
        cpa.onRetire(retiredInst(s, s, s + 3, s + 4, s + 5,
                                 IssueDom::Dispatch, 0,
                                 CommitDom::SelfComplete));
    }
    cpa.finish();
    const auto b = cpa.breakdown();
    EXPECT_GT(b[static_cast<unsigned>(CpBucket::Fetch)], 0.7);
}

TEST(Cpa, BreakdownSumsToOne)
{
    CriticalPathAnalyzer cpa(1000, 128, 50);
    for (InstSeq s = 1; s <= 20; ++s) {
        cpa.onRetire(retiredInst(s, s, s + 3, s + 4, s + 5,
                                 IssueDom::Dispatch, 0,
                                 s % 3 ? CommitDom::PrevCommit
                                       : CommitDom::SelfComplete));
    }
    cpa.finish();
    double sum = 0;
    for (const double x : cpa.breakdown())
        sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(cpa.totalWeight(), 0u);
}

TEST(Cpa, ChunkingProcessesIncrementally)
{
    CriticalPathAnalyzer cpa(8, 4, 4);  // tiny chunks
    for (InstSeq s = 1; s <= 40; ++s) {
        cpa.onRetire(retiredInst(s, s, s + 3, s + 4, s + 5,
                                 IssueDom::Dispatch, 0,
                                 CommitDom::SelfComplete));
    }
    cpa.finish();
    EXPECT_GT(cpa.totalWeight(), 0u);
}

// ---- end-to-end shape checks ---------------------------------------------

TEST(CpaEndToEnd, MemoryBoundLoopShowsLoadCriticality)
{
    // Pointer-chasing through a 256KB ring: D$ misses dominate.
    const char *src = R"(
        .data
buf:    .space 262144
        .text
_start:
        la   s0, buf
        # build a stride-2080 ring of pointers (prime-ish stride)
        li   t0, 0
        li   s1, 126
init:
        muli t1, t0, 2080
        add  t2, s0, t1
        addi t3, t0, 1
        muli t4, t3, 2080
        add  t5, s0, t4
        stq  t5, 0(t2)
        mov  t0, t3
        slt  t6, t0, s1
        bne  t6, init
        muli t1, s1, 2080
        add  t2, s0, t1
        stq  s0, 0(t2)        # close the ring
        # chase
        mov  t0, s0
        li   s2, 20000
chase:
        ldq  t0, 0(t0)
        subi s2, s2, 1
        bne  s2, chase
        li   v0, 0
        li   a0, 0
        syscall
)";
    const auto b = runCritpath(src, CoreParams{});
    const double load_total =
        b[static_cast<unsigned>(CpBucket::LoadExec)] +
        b[static_cast<unsigned>(CpBucket::LoadMem)];
    EXPECT_GT(load_total, 0.5) << "pointer chase must be load-bound";
}

TEST(CpaEndToEnd, AluBoundLoopShowsAluCriticality)
{
    const char *src =
        "  li s1, 5000\n  li t0, 1\n"
        "loop:\n"
        "  mul t0, t0, s1\n"
        "  mul t0, t0, t0\n"
        "  ori t0, t0, 1\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    const auto b = runCritpath(src, CoreParams{});
    EXPECT_GT(b[static_cast<unsigned>(CpBucket::AluExec)], 0.4);
}

TEST(CpaEndToEnd, RenoCollapsesAluCriticalityIntoFetch)
{
    // A serial chain of foldable register-immediate additions: the
    // baseline's critical path runs through the ALU; with RENO the
    // chain collapses and criticality migrates to the in-order front
    // end (the paper's "ALU criticality decays into fetch
    // criticality", section 4.3).
    const char *src =
        "  li s1, 4000\n  li t0, 1\n"
        "loop:\n"
        "  addi t0, t0, 3\n"
        "  addi t1, t0, 5\n"
        "  add  t0, t1, s1\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";

    CoreParams base;
    const auto b = runCritpath(src, base);

    CoreParams reno;
    reno.reno = RenoConfig::full();
    const auto r = runCritpath(src, reno);

    const unsigned alu = static_cast<unsigned>(CpBucket::AluExec);
    const unsigned fetch = static_cast<unsigned>(CpBucket::Fetch);
    EXPECT_LT(r[alu], b[alu])
        << "folding must remove ALU cycles from the critical path";
    EXPECT_GT(r[fetch], b[fetch])
        << "what remains critical is front-end delivery";
}

TEST(CpaEndToEnd, BreakdownIsDeterministic)
{
    const char *src =
        "  li s1, 2000\n  li t0, 1\n"
        "loop:\n"
        "  mul t0, t0, s1\n"
        "  subi s1, s1, 1\n"
        "  bne s1, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    const auto a = runCritpath(src, CoreParams{});
    const auto b = runCritpath(src, CoreParams{});
    for (unsigned i = 0; i < NumCpBuckets; ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]) << "bucket " << i;
}
