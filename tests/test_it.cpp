/**
 * @file
 * Integration table tests: tuple matching on every key field,
 * signature replacement, LRU eviction, reverse entries, input-preg
 * invalidation, output-register reference holding, and LRU reclaim
 * under register pressure, checked against a full-scan reference on a
 * seeded operation sequence.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "reno/integration_table.hpp"
#include "reno/physregs.hpp"

using namespace reno;

namespace
{

ItEntry
loadTuple(PhysReg base, std::int16_t bdisp, std::int32_t imm,
          PhysReg out, bool reverse = false)
{
    ItEntry e;
    e.reverse = reverse;
    e.op = Opcode::LDQ;
    e.imm = imm;
    e.in1 = MapEntry{base, bdisp};
    e.out = MapEntry{out, 0};
    return e;
}

} // namespace

TEST(It, InsertThenLookupHits)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9));
    const ItSlot slot =
        it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{});
    ASSERT_NE(slot, InvalidItSlot);
    EXPECT_EQ(it.entry(slot).out.preg, 9);
    EXPECT_EQ(it.hits(), 1u);
}

TEST(It, EveryKeyFieldMatters)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 4, 8, 9));
    // Different opcode.
    EXPECT_EQ(it.lookup(Opcode::LDL, 8, MapEntry{5, 4}, MapEntry{}),
              InvalidItSlot);
    // Different immediate.
    EXPECT_EQ(it.lookup(Opcode::LDQ, 16, MapEntry{5, 4}, MapEntry{}),
              InvalidItSlot);
    // Different input register.
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{6, 4}, MapEntry{}),
              InvalidItSlot);
    // Different input displacement (RENO_CF extension).
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{}),
              InvalidItSlot);
    // Exact match.
    EXPECT_NE(it.lookup(Opcode::LDQ, 8, MapEntry{5, 4}, MapEntry{}),
              InvalidItSlot);
}

TEST(It, SecondInputParticipates)
{
    IntegrationTable it(ItParams{64, 2});
    ItEntry e;
    e.op = Opcode::ADD;
    e.in1 = MapEntry{1, 0};
    e.in2 = MapEntry{2, 0};
    e.out = MapEntry{3, 0};
    it.insert(e);
    EXPECT_NE(it.lookup(Opcode::ADD, 0, MapEntry{1, 0}, MapEntry{2, 0}),
              InvalidItSlot);
    EXPECT_EQ(it.lookup(Opcode::ADD, 0, MapEntry{1, 0}, MapEntry{7, 0}),
              InvalidItSlot);
}

TEST(It, SignatureReplacementKeepsNewest)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9));
    it.insert(loadTuple(5, 0, 8, 11));  // same signature, new output
    const ItSlot slot =
        it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{});
    ASSERT_NE(slot, InvalidItSlot);
    EXPECT_EQ(it.entry(slot).out.preg, 11);
}

TEST(It, ReverseFlagPreserved)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9, true));
    const ItSlot slot =
        it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{});
    ASSERT_NE(slot, InvalidItSlot);
    EXPECT_TRUE(it.entry(slot).reverse);
}

TEST(It, InvalidateSlot)
{
    IntegrationTable it(ItParams{64, 2});
    const ItSlot slot = it.insert(loadTuple(5, 0, 8, 9));
    it.invalidateSlot(slot);
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{}),
              InvalidItSlot);
    EXPECT_EQ(it.invalidations(), 1u);
    it.invalidateSlot(slot);  // idempotent
    EXPECT_EQ(it.invalidations(), 1u);
}

TEST(It, InvalidatePregKillsEntriesUsingItAsInput)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9));
    it.insert(loadTuple(6, 0, 8, 10));
    it.invalidatePreg(5);
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{}),
              InvalidItSlot);
    EXPECT_NE(it.lookup(Opcode::LDQ, 8, MapEntry{6, 0}, MapEntry{}),
              InvalidItSlot);
}

TEST(It, AccessAndInsertionCounters)
{
    IntegrationTable it(ItParams{64, 2});
    it.insert(loadTuple(5, 0, 8, 9));
    it.lookup(Opcode::LDQ, 8, MapEntry{5, 0}, MapEntry{});
    it.lookup(Opcode::LDQ, 9, MapEntry{5, 0}, MapEntry{});
    EXPECT_EQ(it.accesses(), 3u);  // 1 insert + 2 lookups
    EXPECT_EQ(it.insertions(), 1u);
    EXPECT_EQ(it.hits(), 1u);
}

TEST(It, OutputRegisterReferenceHeld)
{
    PhysRegFile prf(16);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg out = prf.alloc();
    EXPECT_EQ(prf.refCount(out), 1u);
    const ItSlot slot = it.insert(loadTuple(3, 0, 8, out));
    EXPECT_EQ(prf.refCount(out), 2u);

    // Architectural overwrite: value survives via the IT reference.
    prf.decRef(out);
    EXPECT_EQ(prf.refCount(out), 1u);

    // Invalidation releases the last reference.
    it.invalidateSlot(slot);
    EXPECT_EQ(prf.refCount(out), 0u);
    EXPECT_EQ(prf.numFree(), 16u);
}

TEST(It, EvictionReleasesReference)
{
    PhysRegFile prf(64);
    // Tiny direct-mapped table: one set, one way.
    IntegrationTable it(ItParams{1, 1});
    it.attachRegFile(&prf);

    const PhysReg a = prf.alloc();
    const PhysReg b = prf.alloc();
    it.insert(loadTuple(3, 0, 8, a));
    EXPECT_EQ(prf.refCount(a), 2u);
    it.insert(loadTuple(4, 0, 16, b));  // evicts the first tuple
    EXPECT_EQ(prf.refCount(a), 1u);
    EXPECT_EQ(prf.refCount(b), 2u);
}

TEST(It, CascadingInvalidation)
{
    // Entry X's output feeds entry Y's input; freeing X's input kills
    // X, which frees X's output, which kills Y.
    PhysRegFile prf(16);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg p_in = prf.alloc();
    const PhysReg p_mid = prf.alloc();
    const PhysReg p_out = prf.alloc();
    it.insert(loadTuple(p_in, 0, 8, p_mid));
    it.insert(loadTuple(p_mid, 0, 16, p_out));

    // Drop architectural references to mid and out; both survive on
    // table references.
    prf.decRef(p_mid);
    prf.decRef(p_out);
    EXPECT_EQ(prf.refCount(p_mid), 1u);
    EXPECT_EQ(prf.refCount(p_out), 1u);

    // Freeing p_in invalidates the first entry, freeing p_mid, which
    // invalidates the second, freeing p_out.
    prf.setOnFree([&](PhysReg p) { it.invalidatePreg(p); });
    prf.decRef(p_in);
    EXPECT_EQ(prf.refCount(p_mid), 0u);
    EXPECT_EQ(prf.refCount(p_out), 0u);
}

TEST(It, InvalidationReenteringTheSameRegisterIsSafe)
{
    // A tuple whose input and output are the same register: releasing
    // it frees that register, and the free re-enters invalidatePreg
    // for the list being walked.
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);
    prf.setOnFree([&](PhysReg p) { it.invalidatePreg(p); });

    const PhysReg p = prf.alloc();
    const PhysReg q = prf.alloc();
    it.insert(loadTuple(p, 0, 8, p));
    it.insert(loadTuple(p, 0, 16, q));
    prf.decRef(p);  // only the first tuple holds p now
    EXPECT_EQ(prf.refCount(p), 1u);

    it.invalidatePreg(p);
    EXPECT_EQ(prf.refCount(p), 0u);
    EXPECT_EQ(prf.refCount(q), 1u) << "the second tuple's pin released";
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{p, 0}, MapEntry{}),
              InvalidItSlot);
    EXPECT_EQ(it.lookup(Opcode::LDQ, 16, MapEntry{p, 0}, MapEntry{}),
              InvalidItSlot);
}

TEST(It, ReclaimLruFreesTableOnlyRegisters)
{
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg held = prf.alloc();   // stays architecturally mapped
    const PhysReg loose = prf.alloc();  // will be table-only
    it.insert(loadTuple(3, 0, 8, held));
    it.insert(loadTuple(3, 0, 16, loose));
    prf.decRef(loose);  // only the IT holds it now

    const unsigned free_before = prf.numFree();
    EXPECT_TRUE(it.reclaimLru());
    EXPECT_EQ(prf.numFree(), free_before + 1);
    EXPECT_EQ(prf.refCount(loose), 0u);
    // The architecturally-held tuple was not touched.
    EXPECT_NE(it.lookup(Opcode::LDQ, 8, MapEntry{3, 0}, MapEntry{}),
              InvalidItSlot);

    // Nothing reclaimable left.
    EXPECT_FALSE(it.reclaimLru());
}

TEST(It, ReclaimFreesMultiplyPinnedRegisters)
{
    // Regression: a register pinned by SEVERAL tuples (e.g. a forward
    // and a reverse entry) has refcount > 1 with no single entry
    // "owning" it. Reclaim must recognize that the table holds all of
    // its references and release every pinning entry, or a small
    // register pool deadlocks (rename waits forever for a free
    // register).
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg shared = prf.alloc();
    it.insert(loadTuple(3, 0, 8, shared));
    it.insert(loadTuple(3, 0, 16, shared));   // second pin
    prf.decRef(shared);  // drop the alloc ref: only the pins remain
    EXPECT_EQ(prf.refCount(shared), 2u) << "two table pins";

    const unsigned free_before = prf.numFree();
    EXPECT_TRUE(it.reclaimLru());
    EXPECT_EQ(prf.refCount(shared), 0u)
        << "both pinning entries must be released";
    EXPECT_EQ(prf.numFree(), free_before + 1);
    EXPECT_EQ(it.lookup(Opcode::LDQ, 8, MapEntry{3, 0}, MapEntry{}),
              InvalidItSlot);
    EXPECT_EQ(it.lookup(Opcode::LDQ, 16, MapEntry{3, 0}, MapEntry{}),
              InvalidItSlot);
}

TEST(It, ReclaimPicksTheOldestEntryAcrossMultiplyPinnedRegisters)
{
    // The victim is the least-recently-used reclaimable entry, even
    // when its register is pinned twice (a forward and a reverse
    // tuple) and a younger entry pins another register only once.
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg older = prf.alloc();
    const PhysReg younger = prf.alloc();
    it.insert(loadTuple(3, 0, 8, older));
    it.insert(loadTuple(4, 0, 8, older, /*reverse=*/true));
    it.insert(loadTuple(3, 0, 16, younger));
    prf.decRef(older);
    prf.decRef(younger);
    EXPECT_EQ(prf.refCount(older), 2u);
    EXPECT_EQ(prf.refCount(younger), 1u);

    EXPECT_TRUE(it.reclaimLru());
    EXPECT_EQ(prf.refCount(older), 0u)
        << "the older, doubly pinned register goes first";
    EXPECT_EQ(prf.refCount(younger), 1u);

    EXPECT_TRUE(it.reclaimLru());
    EXPECT_EQ(prf.refCount(younger), 0u);
    EXPECT_FALSE(it.reclaimLru());
    EXPECT_EQ(prf.numFree(), 8u);
}

TEST(It, ReclaimSkipsRegistersWithOutsideReferences)
{
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);

    const PhysReg held = prf.alloc();  // alloc ref = architectural
    it.insert(loadTuple(3, 0, 8, held));
    it.insert(loadTuple(3, 0, 16, held));
    EXPECT_EQ(prf.refCount(held), 3u);

    // refcount (3) != table pins (2): not table-only, must not free.
    EXPECT_FALSE(it.reclaimLru());
    EXPECT_EQ(prf.refCount(held), 3u);
}

TEST(It, ResetReleasesEverything)
{
    PhysRegFile prf(8);
    IntegrationTable it(ItParams{64, 2});
    it.attachRegFile(&prf);
    const PhysReg p = prf.alloc();
    it.insert(loadTuple(3, 0, 8, p));
    prf.decRef(p);
    it.reset();
    EXPECT_EQ(prf.numFree(), 8u);
}

TEST(It, RejectsBadGeometry)
{
    EXPECT_EXIT((IntegrationTable{ItParams{3, 2}}),
                ::testing::ExitedWithCode(1), "multiple");
}

namespace
{

/** Valid entries naming @p preg as output (the table's pin count). */
unsigned
countPins(const IntegrationTable &it, unsigned entries, PhysReg preg)
{
    unsigned n = 0;
    for (ItSlot slot = 0; slot < entries; ++slot) {
        const ItEntry &e = it.rawEntry(slot);
        n += e.valid && e.out.preg == preg;
    }
    return n;
}

/**
 * The reclaim the table used to implement, kept as the reference: scan
 * every slot for the reclaimable entry with the smallest lruStamp, then
 * release that register's pinning entries in slot order. Returns the
 * victim slot (InvalidItSlot when nothing is reclaimable).
 */
ItSlot
bruteReclaim(IntegrationTable &it, const PhysRegFile &prf,
             unsigned entries)
{
    ItSlot victim = InvalidItSlot;
    for (ItSlot slot = 0; slot < entries; ++slot) {
        const ItEntry &e = it.rawEntry(slot);
        if (!e.valid || e.out.preg == InvalidPhysReg)
            continue;
        if (victim != InvalidItSlot &&
            e.lruStamp >= it.rawEntry(victim).lruStamp)
            continue;
        if (prf.refCount(e.out.preg) != countPins(it, entries, e.out.preg))
            continue;
        victim = slot;
    }
    if (victim == InvalidItSlot)
        return victim;
    const PhysReg target = it.rawEntry(victim).out.preg;
    for (ItSlot slot = 0;
         slot < entries && countPins(it, entries, target) > 0; ++slot) {
        const ItEntry &e = it.rawEntry(slot);
        if (e.valid && e.out.preg == target)
            it.invalidateSlot(slot);
    }
    return victim;
}

/** One table over its own register file, wired as the renamer wires
 *  them (a freed register invalidates the entries reading it). */
struct TableRig {
    PhysRegFile prf;
    IntegrationTable it;

    TableRig(unsigned pregs, const ItParams &params)
        : prf(pregs), it(params)
    {
        it.attachRegFile(&prf);
        prf.setOnFree([this](PhysReg p) { it.invalidatePreg(p); });
    }
};

void
expectSameState(const TableRig &a, const TableRig &b, unsigned entries,
                unsigned pregs, int step)
{
    for (ItSlot slot = 0; slot < entries; ++slot) {
        const ItEntry &x = a.it.rawEntry(slot);
        const ItEntry &y = b.it.rawEntry(slot);
        ASSERT_EQ(x.valid, y.valid) << "step " << step << " slot " << slot;
        if (!x.valid)
            continue;
        ASSERT_TRUE(x.op == y.op && x.imm == y.imm && x.in1 == y.in1 &&
                    x.in2 == y.in2 && x.out == y.out &&
                    x.reverse == y.reverse && x.lruStamp == y.lruStamp)
            << "step " << step << " slot " << slot;
    }
    for (PhysReg p = 0; p < pregs; ++p)
        ASSERT_EQ(a.prf.refCount(p), b.prf.refCount(p))
            << "step " << step << " p" << p;
    ASSERT_EQ(a.it.accesses(), b.it.accesses());
    ASSERT_EQ(a.it.hits(), b.it.hits());
    ASSERT_EQ(a.it.invalidations(), b.it.invalidations());
}

} // namespace

TEST(It, ReclaimMatchesTheFullScanOnASeededSequence)
{
    // A small register file under a large table keeps the pool near
    // empty, so reclaims are frequent and often find several
    // candidates, some pinned twice, some still mapped.
    constexpr unsigned Pregs = 40;
    const ItParams params{64, 2};
    TableRig lru(Pregs, params);
    TableRig ref(Pregs, params);
    std::vector<PhysReg> held;  // outside references (one per element)
    Rng rng(0x5eed);
    unsigned reclaims = 0;

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 35) {
            // Allocate, reclaiming first when the pool is dry.
            if (!lru.prf.hasFree()) {
                const ItSlot want = bruteReclaim(ref.it, ref.prf,
                                                 params.entries);
                ASSERT_EQ(lru.it.reclaimLru(), want != InvalidItSlot)
                    << "step " << step;
                if (want != InvalidItSlot) {
                    ASSERT_FALSE(lru.it.rawEntry(want).valid)
                        << "step " << step << ": victim " << want;
                    ++reclaims;
                }
            }
            if (lru.prf.hasFree()) {
                const PhysReg p = lru.prf.alloc();
                ASSERT_EQ(ref.prf.alloc(), p);
                held.push_back(p);
            }
        } else if (op < 55 && !held.empty()) {
            // Drop an outside reference.
            const std::size_t i = rng.below(held.size());
            lru.prf.decRef(held[i]);
            ref.prf.decRef(held[i]);
            held[i] = held.back();
            held.pop_back();
        } else if (op < 85 && !held.empty()) {
            // Insert a tuple over any registers, pinning a live one.
            ItEntry e;
            e.op = rng.below(2) ? Opcode::LDQ : Opcode::ADD;
            e.imm = static_cast<std::int32_t>(rng.below(4));
            e.in1 = MapEntry{static_cast<PhysReg>(rng.below(Pregs)), 0};
            if (e.op == Opcode::ADD)
                e.in2 =
                    MapEntry{static_cast<PhysReg>(rng.below(Pregs)), 0};
            e.out = MapEntry{held[rng.below(held.size())], 0};
            e.reverse = rng.below(4) == 0;
            ASSERT_EQ(lru.it.insert(e), ref.it.insert(e))
                << "step " << step;
        } else if (op < 95) {
            // Look up a present signature (a hit moves it to the back)
            // or a random one.
            const ItSlot slot =
                static_cast<ItSlot>(rng.below(params.entries));
            const ItEntry probe = lru.it.rawEntry(slot);
            ASSERT_EQ(lru.it.lookup(probe.op, probe.imm, probe.in1,
                                    probe.in2),
                      ref.it.lookup(probe.op, probe.imm, probe.in1,
                                    probe.in2))
                << "step " << step;
        } else {
            const ItSlot slot =
                static_cast<ItSlot>(rng.below(params.entries));
            lru.it.invalidateSlot(slot);
            ref.it.invalidateSlot(slot);
        }
        expectSameState(lru, ref, params.entries, Pregs, step);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(reclaims, 500u) << "the sequence must exercise reclaim";
}
