/**
 * @file
 * Functional emulator for the RENO ISA.
 *
 * Runs programs architecturally, one instruction per step(). The
 * timing core uses it as an oracle: each step yields an ExecRecord
 * with the instruction's source values, result, effective address and
 * next pc, which the cycle-level model then schedules (SimpleScalar
 * style functional-first simulation).
 *
 * Bulk execution -- run(), runUntil() -- goes through the decoded
 * superblock engine (emu/decoded.hpp). Functional warming uses the
 * same engine through runUntil(bound, sink): the engine reports each
 * instruction's fetch, data access and control outcome to a
 * compile-time sink, so warming runs at engine speed instead of one
 * step() per instruction.
 *
 * System calls (v0 = number, a0.. = arguments):
 *   0 exit(a0)
 *   1 print_int(a0)     appends decimal to the captured output
 *   2 print_str(a0)     a0 = address of NUL-terminated string
 *   3 print_char(a0)
 *   4 clock()           v0 = retired instruction count (deterministic)
 *   5 rand()            v0 = next value of a deterministic LCG
 *   6 core_id()         v0 = Options::coreId (0 outside a System) --
 *                       SPMD kernels derive core-private addresses
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/types.hpp"
#include "emu/decoded.hpp"
#include "isa/inst.hpp"
#include "mem/sparse_memory.hpp"

namespace reno
{

/**
 * Process-wide default for Options::decodedExec: true (the decoded
 * engine) unless a caller -- the interpreter-reference tests -- sets
 * it. Outputs are bit-exact either way; the decoded engine is simply
 * faster.
 */
bool defaultDecodedExec();
void setDefaultDecodedExec(bool decoded);

/** Syscall numbers. */
enum : std::uint64_t {
    SysExit = 0,
    SysPrintInt = 1,
    SysPrintStr = 2,
    SysPrintChar = 3,
    SysClock = 4,
    SysRand = 5,
    SysCoreId = 6,
};

/** Architectural register file + pc. */
struct ArchState {
    std::uint64_t regs[NumLogRegs] = {};
    Addr pc = 0;

    std::uint64_t
    reg(LogReg r) const
    {
        return r == RegZero ? 0 : regs[r];
    }

    void
    setReg(LogReg r, std::uint64_t v)
    {
        if (r != RegZero)
            regs[r] = v;
    }
};

/** Everything the timing model needs to know about one executed inst. */
struct ExecRecord {
    Instruction inst;
    Addr pc = 0;
    Addr npc = 0;              //!< actual next pc (branch outcome)
    std::uint64_t srcVal[2] = {0, 0};
    std::uint64_t result = 0;  //!< destination value (if any)
    Addr effAddr = 0;          //!< memory ops: effective address
    std::uint64_t storeData = 0;
    bool taken = false;        //!< control: did the pc redirect?
    bool exited = false;       //!< this instruction ended the program
};

/** Evaluate a non-memory, non-control operation (shared with tests). */
std::uint64_t evalAlu(Opcode op, std::uint64_t a, std::uint64_t b,
                      std::int32_t imm);

/** Content digest of a program image (text, data, bases, entry),
 *  hashed on first use and memoized in the image (Program::digest). */
std::uint64_t programDigest(const Program &prog);

/**
 * Event sink of a sink-driven run (Emulator::runUntil(bound, sink)),
 * the interface functional warming feeds its caches and predictor
 * from. Hooks are called per executed instruction, in program order:
 *
 *   fetch(pc)                       before the instruction executes;
 *   data(effAddr, is_store)         for each load or store;
 *   control(pc, inst, taken, npc)   for each control op, with the
 *                                   taken/npc that step() reports.
 *
 * The decoded engine is a template over the sink and calls the hooks
 * inline. NullSink, whose hooks are empty, is the instantiation behind
 * run() and runUntil(bound), so the plain engine carries no hook code.
 */
struct NullSink {
    void fetch(Addr) {}
    void data(Addr, bool) {}
    void control(Addr, const Instruction &, bool, Addr) {}
};

/**
 * A full functional checkpoint: everything Emulator needs to resume
 * exactly where a previous run stopped. A resumed run is byte-identical
 * to an uninterrupted one, including the clock syscall (instCount), the
 * rand syscall stream (randState) and the accumulated program output.
 * progDigest guards against restoring onto a different program.
 */
struct EmuCheckpoint {
    ArchState state;
    SparseMemory mem;
    std::string output;
    std::uint64_t instCount = 0;
    std::uint64_t exitCode = 0;
    std::uint64_t randState = 0;
    bool done = false;
    std::uint64_t progDigest = 0;
};

/** The functional emulator. */
class Emulator
{
  public:
    struct Options {
        Addr stackTop = DefaultStackTop;
        std::uint64_t maxInsts = 100'000'000;  //!< runaway guard
        std::uint64_t randSeed = 1;
        /** Returned by the core_id syscall; a multi-core System's
         *  harness sets it to the core index. */
        std::uint64_t coreId = 0;
        /** Execute over pre-decoded superblocks (src/emu/decoded.hpp)
         *  instead of decoding every instruction on every step. A
         *  pure accelerator: state transitions, ExecRecords, output,
         *  digests and checkpoints are bit-exact either way. */
        bool decodedExec = defaultDecodedExec();
        /** Block executions before a chainable block is re-decoded
         *  as a superblock across its unconditional transfers. */
        std::uint64_t hotThreshold = 16;
    };

    explicit Emulator(const Program &prog, Options opts);
    explicit Emulator(const Program &prog) : Emulator(prog, Options{}) {}
    ~Emulator();

    Emulator(const Emulator &) = delete;
    Emulator &operator=(const Emulator &) = delete;
    /** Movable (the source keeps running state but forfeits its
     *  block cache and stats, so metrics are flushed exactly once). */
    Emulator(Emulator &&other) noexcept;
    Emulator &operator=(Emulator &&) = delete;

    /** Execute one instruction. Invalid after done(). */
    ExecRecord step();

    /** Run to exit (or maxInsts); returns retired instruction count. */
    std::uint64_t run();

    /**
     * Fast-forward: run until at least @p inst_bound instructions have
     * executed (or the program exits). Returns the instruction count.
     * fatal() on a bound below the instructions already retired.
     */
    std::uint64_t runUntil(std::uint64_t inst_bound);

    /**
     * runUntil() reporting every executed instruction to @p sink (see
     * NullSink for the hooks). Stops at exactly @p inst_bound, also
     * mid-block and mid-superblock, and resumes there; a store into
     * the text segment still invalidates the blocks it overwrote.
     * Defined in emu/exec_decoded.hpp: a caller with its own Sink type
     * includes that header to instantiate it.
     */
    template <class Sink>
    std::uint64_t runUntil(std::uint64_t inst_bound, Sink &sink);

    /** Snapshot the complete functional state. */
    EmuCheckpoint checkpoint() const;

    /**
     * Resume from a checkpoint taken on the same program (fatal() on a
     * program-digest mismatch). Replaces all functional state.
     */
    void restore(const EmuCheckpoint &ckpt);

    bool done() const { return done_; }

    /** Exit code passed to the exit syscall (0 if still running). */
    std::uint64_t exitCode() const { return exitCode_; }

    std::uint64_t instCount() const { return instCount_; }
    const ArchState &state() const { return state_; }
    ArchState &state() { return state_; }
    const SparseMemory &memory() const { return mem_; }
    SparseMemory &memory() { return mem_; }
    const std::string &output() const { return output_; }
    const Program &program() const { return prog_; }

    /** Cumulative decoded-block cache statistics (see decoded.hpp). */
    const BlockCacheStats &blockStats() const { return cache_.stats(); }

    /** Instructions retired via the decoded engine / the per-step
     *  interpreter (they sum to instCount()). */
    std::uint64_t decodedInsts() const { return decodedInsts_; }
    std::uint64_t interpInsts() const { return interpInsts_; }

  private:
    std::uint64_t doSyscall();

    /** Shared bounded-run loop behind run()/runUntil(): retire
     *  instructions until exit or instCount() reaches @p inst_bound,
     *  reporting each to @p sink. */
    template <class Sink>
    std::uint64_t runBounded(std::uint64_t inst_bound, Sink &sink);

    /** Threaded-dispatch engine: execute @p blk from @p start_idx,
     *  following block links, until exit, an un-decodable pc, or
     *  instCount() reaches @p limit, reporting each instruction to
     *  @p sink. Pre: instCount() < limit. */
    template <class Sink>
    void execDecoded(DecodedBlock *blk, std::size_t start_idx,
                     std::uint64_t limit, Sink &sink);

    /** Cached block entered at @p pc, decoding (and, when hot,
     *  superblock-promoting) on demand. nullptr when @p pc cannot be
     *  decoded -- the caller falls back to step(). */
    DecodedBlock *lookupOrDecode(Addr pc);

    /** A store overlapped [addr, addr+size) in the text segment:
     *  re-sync the affected code words from memory and invalidate
     *  every overlapping decoded block. */
    void noteCodeWrite(Addr addr, unsigned size);

    /** Accumulate block-cache stats into the obs MetricsRegistry. */
    void flushBlockMetrics() const;

    const Program &prog_;
    Options opts_;
    ArchState state_;
    SparseMemory mem_;
    std::string output_;
    std::uint64_t instCount_ = 0;
    std::uint64_t exitCode_ = 0;
    std::uint64_t randState_;
    bool done_ = false;

    // Decoded-execution engine (pure accelerator; src/emu/decoded.hpp).
    std::vector<std::uint32_t> code_;  //!< mutable text image (SMC)
    Addr textBase_ = 0;
    Addr textEnd_ = 0;
    BlockCache cache_;
    /** Cursor into the block containing pc, kept across step() calls
     *  and mid-block pauses; valid iff curBlock_ != nullptr and
     *  curBlock_->ops[curIdx_].pc == state_.pc. */
    DecodedBlock *curBlock_ = nullptr;
    std::size_t curIdx_ = 0;
    std::uint64_t decodedInsts_ = 0;
    std::uint64_t interpInsts_ = 0;
};

} // namespace reno
