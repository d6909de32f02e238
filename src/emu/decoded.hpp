/**
 * @file
 * Pre-decoded superblock execution for the functional emulator.
 *
 * The per-step interpreter re-decodes the 32-bit word at pc on every
 * instruction. This module decodes each basic block ONCE into a dense
 * array of pre-resolved handler/operand records (DecodedOp), caches
 * the blocks keyed by entry pc (BlockCache), and chains hot blocks
 * into superblocks across unconditional direct control flow (BR/BSR),
 * so the execution loop in Emulator::runUntil() dispatches straight
 * over the decoded form (threaded dispatch, no per-step decode). The
 * loop (emu/exec_decoded.hpp) is a template over an event sink:
 * run()/runUntil(bound) instantiate it with the empty NullSink, and
 * functional warming with a sink that feeds its caches and predictor
 * per executed op.
 *
 * The decoded cache is a pure accelerator: architectural state
 * transitions, ExecRecord streams, program output, digests and
 * checkpoints are bit-exact with the interpreter. A store that hits a
 * code page invalidates every overlapping block (and every
 * block-to-block link, conservatively), so self-modifying code
 * re-decodes before it re-executes.
 *
 * Block boundaries:
 *   - conditional branches and indirect transfers (JSR/JMP) always
 *     terminate a block;
 *   - BR/BSR terminate a plain block but are chained through when a
 *     hot block is re-decoded as a superblock (the transfer is still
 *     recorded as an executed op -- instruction counts are exact);
 *   - syscalls fall through and stay in-block (the engine re-checks
 *     exit after each one);
 *   - an undecodable word or the end of the text segment ends the
 *     block early; executing that pc falls back to the interpreter,
 *     which reports the exact same panic/fatal the per-step path
 *     always produced.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "isa/inst.hpp"

namespace reno
{

/** Pre-resolved execution handler; one dispatch target per op shape. */
enum class Handler : std::uint8_t {
    // Register-register ALU.
    Add, Sub, Mul, Div, Divu, Rem,
    And, Or, Xor, Bic,
    Sll, Srl, Sra,
    Seq, Slt, Sle, Sltu, Sleu,
    // Register-immediate ALU (immediates pre-extended at decode).
    AddI, MulI, AndI, OrI, XorI,
    SllI, SrlI, SraI,
    SeqI, SltI, SleI, SltuI, SleuI,
    Lui,
    // Memory (size / sign-extension pre-resolved).
    Load, Store,
    // Control (targets pre-computed as absolute addresses).
    Beq, Bne, Blt, Bge, Ble, Bgt,
    Br, Bsr, Jsr, Jmp,
    Syscall,
    NumHandlers,
};

/** One pre-decoded instruction: everything the dispatch loop needs,
 *  resolved once at decode time. `inst` keeps the original decoded
 *  form so step() can fill ExecRecords without re-decoding. */
struct DecodedOp {
    Instruction inst;
    Addr pc = 0;
    Addr target = 0;          //!< control: pc + 4 + imm * 4, absolute
    std::int64_t immS = 0;    //!< sign-extended immediate
    std::uint64_t immZ = 0;   //!< zero-extended 16-bit immediate
    Handler handler = Handler::Syscall;
    std::uint8_t ra = 0;
    std::uint8_t rb = 0;
    std::uint8_t rc = 0;
    std::uint8_t memSize = 0;
    bool signedLoad = false;
};

/** A decoded basic block (or chained superblock), keyed by entry pc. */
struct DecodedBlock {
    Addr entry = 0;
    /** Conservative [lo, hi) byte range of member instructions; a
     *  superblock spanning disjoint regions covers the hull. Used by
     *  the write-to-code invalidation guard. */
    Addr lo = 0;
    Addr hi = 0;
    std::vector<DecodedOp> ops;
    std::uint64_t execCount = 0;
    bool isSuperblock = false;
    /** Ends with a direct BR/BSR into text: a superblock re-decode
     *  can chain through it. */
    bool chainable = false;
    /** Cached successors (block linking): the block executed after
     *  this one via its terminal taken transfer / fall-through.
     *  Nulled wholesale on any invalidation or replacement. */
    DecodedBlock *linkTaken = nullptr;
    DecodedBlock *linkFall = nullptr;
};

/** Cumulative block-cache statistics (surfaced through the obs
 *  MetricsRegistry, i.e. --metrics-json). */
struct BlockCacheStats {
    std::uint64_t lookups = 0;          //!< block fetches by entry pc
    std::uint64_t hits = 0;             //!< served without decoding
    std::uint64_t blocksDecoded = 0;
    std::uint64_t superblocksChained = 0;
    std::uint64_t opsDecoded = 0;
    std::uint64_t invalidationEvents = 0;  //!< code-page write events
    std::uint64_t invalidatedBlocks = 0;   //!< blocks dropped by them

    double
    hitRate() const
    {
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/** Decode limits; generous caps that bound superblock growth. */
struct DecodeLimits {
    unsigned maxBlockOps = 128;
    unsigned maxSuperblockOps = 1024;
    unsigned maxChainLinks = 64;
};

/**
 * Decode one block starting at @p entry from the code image
 * (@p words instruction words based at @p text_base). With
 * @p superblock, chains through direct unconditional transfers up to
 * the limits. Returns an empty-ops block when @p entry is outside
 * text or its first word does not decode (caller falls back to the
 * interpreter there).
 */
DecodedBlock decodeBlock(const std::uint32_t *words, Addr text_base,
                         std::size_t num_words, Addr entry,
                         bool superblock,
                         const DecodeLimits &limits = DecodeLimits{});

/** Decoded-block cache keyed by entry pc, with cumulative stats. */
class BlockCache
{
  public:
    /** Block whose entry is @p pc, or nullptr. Counts a lookup. */
    DecodedBlock *find(Addr pc);

    /** Insert a freshly decoded block; returns the cached copy. */
    DecodedBlock *insert(DecodedBlock block);

    /** Replace the block at @p block.entry (superblock promotion).
     *  Nulls every cached block link (the old block is freed). */
    DecodedBlock *replace(DecodedBlock block);

    /**
     * Drop every block overlapping [lo, hi) and null every cached
     * link (a dropped block may be someone's successor). Returns the
     * number of blocks dropped; counts one invalidation event.
     */
    std::size_t invalidateRange(Addr lo, Addr hi);

    /** Drop everything (restore onto new state). Stats persist. */
    void clear();

    const BlockCacheStats &stats() const { return stats_; }

    /** Bumped whenever cached blocks are freed (replace / invalidate /
     *  clear). A caller holding raw DecodedBlock pointers across a
     *  cache operation must treat them as dangling when the generation
     *  changed. */
    std::uint64_t generation() const { return generation_; }

  private:
    void unlinkAll();

    std::unordered_map<Addr, std::unique_ptr<DecodedBlock>> blocks_;
    BlockCacheStats stats_;
    std::uint64_t generation_ = 0;
};

} // namespace reno
