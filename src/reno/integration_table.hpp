/**
 * @file
 * The integration table (IT) that drives RENO_CSE and RENO_RA (paper
 * sections 2.2 and 2.4).
 *
 * Each entry is a dataflow tuple
 *     <opcode/imm, [p_in1:d_in1], [p_in2:d_in2] -> [p_out:d_out]>
 * describing one physical register in terms of the instruction that
 * created its value. Displacements are attached to every register name
 * to accommodate RENO_CF.
 *
 *  - Forward entries are created by executed loads and (in the "full
 *    integration" configuration) ALU operations; a later instruction
 *    with the same signature is redundant and shares p_out.
 *  - Reverse entries are created by stores: the store creates the
 *    entry its matching *load* will look up, with the store's data
 *    register in the output position (speculative memory bypassing).
 *    Stack-pointer style register-immediate additions create reverse
 *    entries for the inverse addition in full-integration mode.
 *
 * The table is set-associative and hash-indexed (not associatively
 * searched). Entries referencing a freed physical register are
 * invalidated, which keeps ALU integration non-speculative; load
 * integration remains speculative with respect to intervening stores
 * and is verified by retirement re-execution.
 *
 * Lifetime: each entry holds one reference (paper section 3.1) on its
 * *output* physical register, so integrable values survive past
 * architectural overwrite and retirement ("RENO collapsing works
 * outside the instruction window and persists when an instruction has
 * retired", section 4.5). Input registers are not reference-held;
 * when an input register is freed the entry is invalidated instead,
 * which also protects against physical-register-name reuse. When the
 * free pool empties, the renamer reclaims the least-recently-used
 * entry whose output register is pinned only by the table.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/opcodes.hpp"
#include "reno/map_table.hpp"
#include "reno/physregs.hpp"

namespace reno
{

/** Index of an IT slot, used for targeted invalidation. */
using ItSlot = std::uint32_t;
constexpr ItSlot InvalidItSlot = ~ItSlot{0};

/** One integration-table tuple. */
struct ItEntry {
    bool valid = false;
    bool reverse = false;     //!< created by a store / inverse addi
    Opcode op = Opcode::NumOpcodes;
    std::int32_t imm = 0;
    MapEntry in1;
    MapEntry in2;
    MapEntry out;
    std::uint64_t lruStamp = 0;
};

/** Configuration of the IT. */
struct ItParams {
    unsigned entries = 512;
    unsigned assoc = 2;
};

/** The integration table. */
class IntegrationTable
{
  public:
    explicit IntegrationTable(const ItParams &params = {});

    /**
     * Attach the physical register file whose reference counts this
     * table participates in. Must be called before any insert().
     */
    void
    attachRegFile(PhysRegFile *prf)
    {
        prf_ = prf;
        pins_.assign(prf ? prf->numPregs() : 0, 0);
        pregSlots_.resize(pins_.size());
    }

    /**
     * Look up a tuple matching (@p op, @p imm, @p in1, @p in2).
     * Counts one table access. Returns the slot or InvalidItSlot.
     */
    ItSlot lookup(Opcode op, std::int32_t imm, const MapEntry &in1,
                  const MapEntry &in2);

    /** Entry at @p slot (must be valid). */
    const ItEntry &entry(ItSlot slot) const;

    /** Slot @p slot as stored, valid or not (state inspection). */
    const ItEntry &rawEntry(ItSlot slot) const { return slots_.at(slot); }

    /**
     * Insert a tuple, evicting LRU within the set. Counts one table
     * access. Returns the slot written.
     */
    ItSlot insert(const ItEntry &tuple);

    /** Invalidate one slot (no-op if already invalid). */
    void invalidateSlot(ItSlot slot);

    /** Invalidate every entry that names @p preg as an *input*
     *  (called when a register is freed). */
    void invalidatePreg(PhysReg preg);

    /**
     * Free-pool pressure relief: invalidate the least-recently-used
     * entry whose output register is held only by this table (and
     * every other entry pinning that register, in slot order),
     * freeing the register. Walks the valid entries oldest-first and
     * stops at the first reclaimable one. Returns true if a register
     * was freed.
     */
    bool reclaimLru();

    /** Drop everything, releasing held references. */
    void reset();

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t insertions() const { return insertions_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    unsigned setIndex(Opcode op, std::int32_t imm, const MapEntry &in1,
                      const MapEntry &in2) const;

    /** Register @p slot in the per-preg back-pointer lists. */
    void trackPregs(ItSlot slot, const ItEntry &tuple);

    /** Mark @p slot invalid and release its output reference. */
    void release(ItSlot slot);

    /** Recency list of the valid slots, oldest first (every lookup
     *  hit and insert restamps a slot and moves it to the back, so
     *  the list is in lruStamp order). */
    struct LruLink {
        ItSlot prev = InvalidItSlot;
        ItSlot next = InvalidItSlot;
    };
    void lruUnlink(ItSlot slot);
    void lruAppend(ItSlot slot);

    ItParams params_;
    PhysRegFile *prf_ = nullptr;
    unsigned numSets_;
    std::vector<ItEntry> slots_;
    std::uint64_t lruClock_ = 0;
    std::vector<LruLink> lru_;
    ItSlot lruHead_ = InvalidItSlot;
    ItSlot lruTail_ = InvalidItSlot;

    /** preg -> slots that may reference it (lazily cleaned). Sized
     *  from the attached register file; an unattached table grows it
     *  on demand. */
    std::vector<std::vector<ItSlot>> pregSlots_;

    /** preg -> references this table holds on it (valid entries
     *  naming it as output); kept current by insert() and release(). */
    std::vector<unsigned> pins_;

    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace reno
