/**
 * @file
 * Memory substrate tests: sparse memory, cache hit/miss behavior,
 * LRU replacement, MSHR merging, bus contention, write-back and
 * prefetch modeling, and hierarchies of configurable depth.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mem/hierarchy.hpp"
#include "mem/sparse_memory.hpp"

using namespace reno;

TEST(SparseMemory, ReadsZeroWhenUntouched)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(SparseMemory, LittleEndianMultiByte)
{
    SparseMemory m;
    m.write(0x100, 0x1122334455667788ULL, 8);
    EXPECT_EQ(m.readByte(0x100), 0x88);
    EXPECT_EQ(m.readByte(0x107), 0x11);
    EXPECT_EQ(m.read(0x100, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x104, 4), 0x11223344u);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory m;
    const Addr addr = SparseMemory::PageSize - 4;
    m.write(addr, 0xaabbccdd11223344ULL, 8);
    EXPECT_EQ(m.read(addr, 8), 0xaabbccdd11223344ULL);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(SparseMemory, LoadBuffer)
{
    SparseMemory m;
    const std::uint8_t data[] = {1, 2, 3, 4};
    m.load(0x2000, data, sizeof(data));
    EXPECT_EQ(m.read(0x2000, 4), 0x04030201u);
}

TEST(SparseMemory, ReadString)
{
    SparseMemory m;
    const char *s = "reno";
    m.load(0x300, reinterpret_cast<const std::uint8_t *>(s), 5);
    EXPECT_EQ(m.readString(0x300), "reno");
}

TEST(SparseMemory, DigestSensitivity)
{
    SparseMemory a, b;
    a.write(0x100, 1, 8);
    b.write(0x100, 1, 8);
    EXPECT_EQ(a.digest(), b.digest());
    b.write(0x108, 1, 1);
    EXPECT_NE(a.digest(), b.digest());
    // Same value at a different address also differs.
    SparseMemory c;
    c.write(0x200, 1, 8);
    EXPECT_NE(a.digest(), c.digest());
}

// ---- single cache ----------------------------------------------------

namespace
{

/** Next-level stub with fixed latency, counting request kinds. */
struct NextLevelStub final : MemLevel {
    unsigned latency = 50;
    unsigned calls = 0;       //!< fills (demand + prefetch)
    unsigned prefetches = 0;  //!< prefetch-kind fills
    unsigned writebacks = 0;  //!< victims drained into us
    std::vector<Addr> writebackAddrs;
    std::string label = "stub";

    Cycle
    access(Addr addr, Cycle now, MemAccessKind kind) override
    {
        if (kind == MemAccessKind::Writeback) {
            ++writebacks;
            writebackAddrs.push_back(addr);
            return now;
        }
        if (kind == MemAccessKind::Prefetch)
            ++prefetches;
        ++calls;
        return now + latency;
    }
    void
    warmAccess(Addr addr, MemAccessKind kind) override
    {
        access(addr, 0, kind);
    }
    bool probe(Addr) const override { return true; }
    void flush() override {}
    const std::string &name() const override { return label; }
};

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = 256;  // 4 sets x 2 ways x 32B
    p.assoc = 2;
    p.blockBytes = 32;
    p.latency = 2;
    p.numMshrs = 2;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);

    const Cycle t1 = c.access(0x1000, 0, MemAccessKind::Read);
    EXPECT_EQ(t1, 0u + 2 + 50 + 2);  // miss: latency + fill + latency
    EXPECT_EQ(c.misses(), 1u);

    const Cycle t2 = c.access(0x1000, t1, MemAccessKind::Read);
    EXPECT_EQ(t2, t1 + 2);  // hit
    EXPECT_EQ(c.hits(), 1u);

    // Same block, different byte: still a hit.
    EXPECT_EQ(c.access(0x101f, t2, MemAccessKind::Read), t2 + 2);
    // Adjacent block: miss.
    c.access(0x1020, t2, MemAccessKind::Read);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, ProbeDoesNotTouchState)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    EXPECT_FALSE(c.probe(0x1000));
    c.access(0x1000, 0, MemAccessKind::Read);
    const Cycle fill = 100;
    EXPECT_TRUE(c.probe(0x1000)) << "filled after access";
    EXPECT_EQ(c.hits(), 0u);
    (void)fill;
}

TEST(Cache, LruEviction)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    // 4 sets of 2 ways; blocks mapping to set 0: block numbers 0, 4, 8.
    Cycle t = 0;
    t = c.access(0 * 32, t, MemAccessKind::Read);       // A
    t = c.access(4 * 32, t, MemAccessKind::Read);       // B
    t = c.access(0 * 32, t, MemAccessKind::Read);       // touch A (B becomes LRU)
    t = c.access(8 * 32, t, MemAccessKind::Read);       // C evicts B
    EXPECT_TRUE(c.probe(0 * 32));
    EXPECT_FALSE(c.probe(4 * 32));
    EXPECT_TRUE(c.probe(8 * 32));
}

TEST(Cache, MshrMergesSameBlock)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    const Cycle t1 = c.access(0x1000, 0, MemAccessKind::Read);
    // Second access to the same block before the fill completes merges
    // into the outstanding miss rather than re-requesting.
    const Cycle t2 = c.access(0x1008, 1, MemAccessKind::Read);
    EXPECT_EQ(next.calls, 1u);
    EXPECT_EQ(c.mshrMerges(), 1u);
    EXPECT_LE(t2, t1 + 2);
}

TEST(Cache, MshrLimitSerializes)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);  // 2 MSHRs
    const Cycle a = c.access(0x0000, 0, MemAccessKind::Read);
    const Cycle b = c.access(0x2000, 0, MemAccessKind::Read);
    // Third distinct miss must wait for an MSHR.
    const Cycle d = c.access(0x4000, 0, MemAccessKind::Read);
    EXPECT_GT(d, a);
    EXPECT_GT(d, b);
    EXPECT_EQ(next.calls, 3u);
}

TEST(Cache, FlushInvalidatesEverything)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    Cycle t = c.access(0x1000, 0, MemAccessKind::Read);
    EXPECT_TRUE(c.probe(0x1000));
    c.flush();
    EXPECT_FALSE(c.probe(0x1000));
    (void)t;
}

// ---- hierarchy --------------------------------------------------------

TEST(Hierarchy, PaperLatencies)
{
    MemHierarchy mem;  // paper configuration

    // Cold D$ access: D$(2) + L2(10) + memory(100) + bus transfer
    // (64B / 16B * 4 = 16 cycles) + return path.
    const Cycle cold = mem.dataAccess(0x10000, 0, false);
    EXPECT_GT(cold, 100u);

    // Hot access: pure D$ latency.
    const Cycle hot = mem.dataAccess(0x10000, cold, false);
    EXPECT_EQ(hot, cold + 2);

    // Neighbor in the same 64B L2 line but different 32B D$ line:
    // misses the D$ but hits the L2.
    const Cycle l2hit = mem.dataAccess(0x10020, hot, false);
    EXPECT_EQ(l2hit, hot + 2 + 10 + 2);
}

TEST(Hierarchy, InstructionFetchPath)
{
    MemHierarchy mem;
    const Cycle cold = mem.fetchAccess(0x1000, 0);
    EXPECT_GT(cold, 100u);
    const Cycle hot = mem.fetchAccess(0x1000, cold);
    EXPECT_EQ(hot, cold + 1);  // 1-cycle I$
}

TEST(Hierarchy, SharedL2BetweenIAndD)
{
    MemHierarchy mem;
    mem.fetchAccess(0x40000, 0);
    // A D$ access to the same 64B line: L2 hit (I-fetch filled it).
    const Cycle t = mem.dataAccess(0x40010, 1000, false);
    EXPECT_EQ(t, 1000u + 2 + 10 + 2);
    EXPECT_TRUE(mem.l2Probe(0x40000));
}

TEST(Hierarchy, BusContentionSerializesMisses)
{
    MemHierarchy mem;
    const Cycle a = mem.dataAccess(0x100000, 0, false);
    const Cycle b = mem.dataAccess(0x200000, 0, false);
    // Both go to memory; the second's bus transfer queues behind the
    // first's.
    EXPECT_GT(b, a);
}

TEST(Hierarchy, ProbesReportLevels)
{
    MemHierarchy mem;
    EXPECT_FALSE(mem.dcacheProbe(0x5000));
    EXPECT_FALSE(mem.l2Probe(0x5000));
    mem.dataAccess(0x5000, 0, false);
    EXPECT_TRUE(mem.dcacheProbe(0x5000));
    EXPECT_TRUE(mem.l2Probe(0x5000));
    mem.flush();
    EXPECT_FALSE(mem.dcacheProbe(0x5000));
}

TEST(Hierarchy, WritesAllocate)
{
    MemHierarchy mem;
    mem.dataAccess(0x7000, 0, true);
    EXPECT_TRUE(mem.dcacheProbe(0x7000));
    EXPECT_GT(mem.dcache().misses(), 0u);
}

// ---- checkpointing support (sampled simulation) ---------------------

TEST(SparseMemory, SnapshotRestoreDigestRoundTrip)
{
    SparseMemory m;
    m.write(0x1000, 0xdeadbeefcafef00dULL, 8);
    m.write(0x7ff123, 0x42, 1);
    const std::uint64_t digest = m.digest();

    const SparseMemory snap = m.snapshot();
    EXPECT_EQ(snap.digest(), digest);
    EXPECT_TRUE(snap == m);

    // Diverge, then restore: digest and equality must round-trip.
    m.write(0x1000, 0, 8);
    m.write(0x2000000, 7, 1);
    EXPECT_NE(m.digest(), digest);
    EXPECT_FALSE(snap == m);

    m.restore(snap);
    EXPECT_EQ(m.digest(), digest);
    EXPECT_TRUE(m == snap);
    EXPECT_EQ(m.read(0x1000, 8), 0xdeadbeefcafef00dULL);
}

TEST(SparseMemory, EqualityDistinguishesAllocatedZeroPages)
{
    // An explicitly written-then-zeroed page is allocated; an
    // untouched one is not. digest() distinguishes them, so equality
    // must too.
    SparseMemory a, b;
    a.write(0x5000, 0, 8);
    EXPECT_EQ(a.numPages(), 1u);
    EXPECT_EQ(b.numPages(), 0u);
    EXPECT_FALSE(a == b);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(SparseMemory, PagesExposesAllocatedContents)
{
    SparseMemory m;
    m.write(0x1004, 0x11223344, 4);
    ASSERT_EQ(m.pages().size(), 1u);
    const auto &[page_num, page] = *m.pages().begin();
    EXPECT_EQ(page_num, 0x1004u >> SparseMemory::PageBits);
    EXPECT_EQ(page.size(), SparseMemory::PageSize);
    EXPECT_EQ(page[4], 0x44);
}

TEST(Cache, CopyStateFromReproducesHitsAndLru)
{
    const CacheParams params{"c", 256, 2, 32, 1, 4};
    NextLevelStub next;
    next.latency = 10;
    Cache a(params, &next);
    a.access(0x000, 0, MemAccessKind::Read);
    a.access(0x100, 5, MemAccessKind::Read);

    Cache b(params, &next);
    b.copyStateFrom(a);
    EXPECT_TRUE(b.probe(0x000));
    EXPECT_TRUE(b.probe(0x100));
    EXPECT_EQ(b.misses(), a.misses());

    // Export/import round-trip preserves the tag state.
    Cache c(params, &next);
    EXPECT_TRUE(c.importState(a.exportState()));
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_TRUE(c.probe(0x100));
    EXPECT_FALSE(c.probe(0x200));
}

TEST(Hierarchy, CopyStateFromAndSettle)
{
    MemHierarchy a;
    a.dataAccess(0x4000, 0, false);
    a.fetchAccess(0x1000, 0);

    MemHierarchy b;
    b.copyStateFrom(a);
    EXPECT_TRUE(b.dcacheProbe(0x4000));
    EXPECT_TRUE(b.l2Probe(0x4000));
    b.settle();
    EXPECT_TRUE(b.dcacheProbe(0x4000)) << "settle keeps tags";

    MemHierarchy c;
    EXPECT_TRUE(c.importState(a.exportState()));
    EXPECT_TRUE(c.dcacheProbe(0x4000));
    EXPECT_TRUE(c.l2Probe(0x4000));
}

// ---- warm access path -----------------------------------------------

namespace
{

/** Terminal level that logs every request it receives, in order. */
struct RequestLog final : MemLevel {
    std::vector<std::pair<Addr, MemAccessKind>> requests;
    std::string label = "log";

    Cycle
    access(Addr addr, Cycle now, MemAccessKind kind) override
    {
        requests.emplace_back(addr, kind);
        return now + 40;
    }
    void
    warmAccess(Addr addr, MemAccessKind kind) override
    {
        requests.emplace_back(addr, kind);
    }
    bool probe(Addr) const override { return true; }
    void flush() override {}
    const std::string &name() const override { return label; }
};

void
expectSameCacheState(const Cache &a, const Cache &b)
{
    const CacheState sa = a.exportState();
    const CacheState sb = b.exportState();
    EXPECT_EQ(sa.lruClock, sb.lruClock) << a.name();
    ASSERT_EQ(sa.validLines.size(), sb.validLines.size()) << a.name();
    for (std::size_t i = 0; i < sa.validLines.size(); ++i) {
        const CacheState::Line &x = sa.validLines[i];
        const CacheState::Line &y = sb.validLines[i];
        EXPECT_EQ(x.index, y.index) << a.name() << " line " << i;
        EXPECT_EQ(x.tag, y.tag) << a.name() << " line " << i;
        EXPECT_EQ(x.lruStamp, y.lruStamp) << a.name() << " line " << i;
        EXPECT_EQ(x.dirty, y.dirty) << a.name() << " line " << i;
        EXPECT_EQ(x.prefetched, y.prefetched)
            << a.name() << " line " << i;
    }
    ASSERT_EQ(sa.prefetch.entries.size(), sb.prefetch.entries.size())
        << a.name();
    for (std::size_t i = 0; i < sa.prefetch.entries.size(); ++i) {
        const PrefetchState::Entry &x = sa.prefetch.entries[i];
        const PrefetchState::Entry &y = sb.prefetch.entries[i];
        EXPECT_EQ(x.index, y.index) << a.name() << " entry " << i;
        EXPECT_EQ(x.regionTag, y.regionTag) << a.name() << " entry " << i;
        EXPECT_EQ(x.lastBlock, y.lastBlock) << a.name() << " entry " << i;
        EXPECT_EQ(x.stride, y.stride) << a.name() << " entry " << i;
        EXPECT_EQ(x.confidence, y.confidence)
            << a.name() << " entry " << i;
    }
    EXPECT_EQ(a.misses(), b.misses()) << a.name();
    EXPECT_EQ(a.writebacks(), b.writebacks()) << a.name();
    EXPECT_EQ(a.prefetchIssued(), b.prefetchIssued()) << a.name();
    EXPECT_EQ(a.prefetchUseful(), b.prefetchUseful()) << a.name();
}

} // namespace

TEST(WarmAccess, MatchesTimedAccessAtCycleZeroAtEveryLevel)
{
    // Two levels over a logging terminal, both with stride
    // prefetchers, write-back traffic and only two MSHRs, so the
    // timed path stalls on full MSHRs and its prefetch-fill queue
    // saturates. Fed the same stream, the timed access at cycle 0
    // and the warm access must leave the same tags, LRU, flags and
    // training at both levels, and send the same requests, in the
    // same order, to the level below.
    CacheParams l1 = smallCache();
    l1.name = "l1";
    l1.sizeBytes = 512;
    l1.prefetch.kind = PrefetchKind::Stride;
    l1.prefetch.degree = 2;
    l1.prefetch.tableEntries = 8;
    l1.prefetch.regionBytes = 1024;
    l1.writebackTraffic = true;
    CacheParams l2 = l1;
    l2.name = "l2";
    l2.sizeBytes = 2048;
    l2.assoc = 4;
    l2.blockBytes = 64;
    l2.prefetch.kind = PrefetchKind::NextLine;

    RequestLog timed_log, warm_log;
    Cache timed_l2(l2, &timed_log), warm_l2(l2, &warm_log);
    Cache timed_l1(l1, &timed_l2), warm_l1(l1, &warm_l2);

    Rng rng(7);
    Addr stride_ptr = 0x10000;
    for (unsigned i = 0; i < 4000; ++i) {
        Addr addr;
        switch (rng.below(3)) {
          case 0:  // strided stream: trains the stride prefetcher
            addr = stride_ptr;
            stride_ptr += 96;
            break;
          case 1:  // scattered: conflict misses, dirty victims
            addr = 0x40000 + rng.below(64) * 32;
            break;
          default:  // reuse of a small hot set
            addr = 0x8000 + rng.below(8) * 32;
            break;
        }
        const MemAccessKind kind = rng.below(3) == 0
                                       ? MemAccessKind::Write
                                       : MemAccessKind::Read;
        timed_l1.access(addr, 0, kind);
        warm_l1.warmAccess(addr, kind);
    }

    EXPECT_GT(timed_l1.misses(), 100u) << "stream must overflow MSHRs";
    EXPECT_GT(timed_l1.writebacks(), 0u);
    EXPECT_GT(timed_l1.prefetchIssued(), 0u);
    EXPECT_GT(timed_l2.prefetchIssued(), 0u);
    expectSameCacheState(timed_l1, warm_l1);
    expectSameCacheState(timed_l2, warm_l2);
    ASSERT_EQ(timed_log.requests.size(), warm_log.requests.size());
    for (std::size_t i = 0; i < timed_log.requests.size(); ++i) {
        EXPECT_EQ(timed_log.requests[i].first, warm_log.requests[i].first)
            << "request " << i;
        EXPECT_EQ(timed_log.requests[i].second,
                  warm_log.requests[i].second)
            << "request " << i;
    }
}

// ---- parameter validation ---------------------------------------------

TEST(CacheValidation, RejectsDegenerateGeometry)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.assoc = 0;
    EXPECT_DEATH(Cache(p, &next), "associativity");

    p = smallCache();
    p.blockBytes = 0;
    EXPECT_DEATH(Cache(p, &next), "power of two");

    p = smallCache();
    p.blockBytes = 48;  // non-power-of-two
    EXPECT_DEATH(Cache(p, &next), "power of two");

    p = smallCache();
    p.numMshrs = 0;
    EXPECT_DEATH(Cache(p, &next), "MSHR");

    p = smallCache();
    p.sizeBytes = 32;  // smaller than one 2-way 32B set
    EXPECT_DEATH(Cache(p, &next), "smaller than one set");
}

TEST(CacheValidation, RejectsBadPrefetcherAndMemoryParams)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.prefetch.kind = PrefetchKind::Stride;
    p.prefetch.tableEntries = 0;
    EXPECT_DEATH(Cache(p, &next), "table");

    p = smallCache();
    p.prefetch.kind = PrefetchKind::NextLine;
    p.prefetch.degree = 0;
    EXPECT_DEATH(Cache(p, &next), "degree");

    MemoryParams m;
    m.busBytes = 0;
    EXPECT_DEATH(MainMemory(m, 64), "bus width");
    m = MemoryParams{};
    m.busClockDivider = 0;
    EXPECT_DEATH(MainMemory(m, 64), "divider");
}

// ---- write-back modeling ----------------------------------------------

TEST(Cache, DirtyVictimCountsWriteback)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);  // writebackTraffic off
    // Write block 0 (set 0), then fill two more set-0 blocks to evict
    // the dirty line.
    Cycle t = c.access(0 * 32, 0, MemAccessKind::Write);
    t = c.access(4 * 32, t, MemAccessKind::Read);
    t = c.access(8 * 32, t, MemAccessKind::Read);
    EXPECT_EQ(c.writebacks(), 1u);
    EXPECT_EQ(next.writebacks, 0u) << "traffic modeling is off";
}

TEST(Cache, WritebackTrafficReachesNextLevel)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.writebackTraffic = true;
    Cache c(p, &next);
    Cycle t = c.access(0 * 32, 0, MemAccessKind::Write);
    t = c.access(4 * 32, t, MemAccessKind::Read);
    t = c.access(8 * 32, t, MemAccessKind::Read);
    EXPECT_EQ(c.writebacks(), 1u);
    ASSERT_EQ(next.writebacks, 1u);
    EXPECT_EQ(next.writebackAddrs[0], 0u) << "victim block address";
    // A clean victim produces no traffic: re-evict a read-only line.
    t = c.access(12 * 32, t, MemAccessKind::Read);
    EXPECT_EQ(next.writebacks, 1u);
}

TEST(Cache, WritebackKindUpdatesInPlaceOrForwards)
{
    NextLevelStub next;
    Cache c(smallCache(), &next);
    c.access(0x1000, 0, MemAccessKind::Read);
    // Present: absorbed by this level, no next-level traffic.
    c.access(0x1000, 100, MemAccessKind::Writeback);
    EXPECT_EQ(next.writebacks, 0u);
    // Absent: forwarded without allocating.
    c.access(0x8000, 100, MemAccessKind::Writeback);
    EXPECT_EQ(next.writebacks, 1u);
    EXPECT_FALSE(c.probe(0x8000));
}

TEST(MainMemory, WritebackOccupiesBusWithoutDramLatency)
{
    MainMemory mem(MemoryParams{}, 64);  // 16 transfer cycles
    const Cycle rd = mem.access(0, 0, MemAccessKind::Read);
    EXPECT_EQ(rd, 0u + 100 + 16);
    // Queued behind the read, transfer only.
    const Cycle wb = mem.access(64, 0, MemAccessKind::Writeback);
    EXPECT_EQ(wb, rd + 16);
    EXPECT_EQ(mem.reads(), 1u);
    EXPECT_EQ(mem.writebacks(), 1u);
}

// ---- prefetchers ------------------------------------------------------

TEST(Prefetch, NextLineFillsAhead)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.sizeBytes = 2048;  // room for the prefetched neighbors
    p.prefetch.kind = PrefetchKind::NextLine;
    p.prefetch.degree = 2;
    Cache c(p, &next);

    c.access(0 * 32, 0, MemAccessKind::Read);  // miss: prefetch 1, 2
    EXPECT_EQ(c.prefetchIssued(), 2u);
    EXPECT_EQ(next.prefetches, 2u);
    EXPECT_TRUE(c.probe(1 * 32));
    EXPECT_TRUE(c.probe(2 * 32));

    // Demand touch of a prefetched line counts it useful, once.
    c.access(1 * 32, 1000, MemAccessKind::Read);
    c.access(1 * 32, 2000, MemAccessKind::Read);
    EXPECT_EQ(c.prefetchUseful(), 1u);
}

TEST(Prefetch, StrideLearnsAndRunsAhead)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.sizeBytes = 4096;
    p.prefetch.kind = PrefetchKind::Stride;
    p.prefetch.degree = 1;
    Cache c(p, &next);

    // Stride of 2 blocks (64B) within one 4KB region: blocks 0, 2,
    // 4, 6. The stride is learned at 2, confirmed at 4 and 6; the
    // second confirmation arms the entry.
    Cycle t = 0;
    t = c.access(0 * 32, t, MemAccessKind::Read);
    t = c.access(2 * 32, t, MemAccessKind::Read);   // stride learned
    t = c.access(4 * 32, t, MemAccessKind::Read);   // one confirmation
    EXPECT_EQ(c.prefetchIssued(), 0u) << "not confident yet";
    t = c.access(6 * 32, t, MemAccessKind::Read);   // armed
    EXPECT_GE(c.prefetchIssued(), 1u);
    EXPECT_TRUE(c.probe(8 * 32)) << "runs one stride ahead";
}

TEST(Prefetch, StrideStatePersistsThroughExportImport)
{
    NextLevelStub next;
    CacheParams p = smallCache();
    p.sizeBytes = 4096;
    p.prefetch.kind = PrefetchKind::Stride;
    p.prefetch.degree = 1;
    Cache a(p, &next);
    Cycle t = 0;
    t = a.access(0 * 32, t, MemAccessKind::Read);
    t = a.access(2 * 32, t, MemAccessKind::Read);
    t = a.access(4 * 32, t, MemAccessKind::Read);

    // Import into a fresh cache: the learned (but not yet armed)
    // stride must carry over, so the next in-stride access arms it
    // there.
    Cache b(p, &next);
    ASSERT_TRUE(b.importState(a.exportState()));
    b.access(6 * 32, t, MemAccessKind::Read);
    EXPECT_GE(b.prefetchIssued(), 1u);
    EXPECT_TRUE(b.probe(8 * 32));

    // And the direct-copy path behaves identically.
    Cache d(p, &next);
    d.copyStateFrom(a);
    d.access(6 * 32, t, MemAccessKind::Read);
    EXPECT_GE(d.prefetchIssued(), 1u);
    EXPECT_TRUE(d.probe(8 * 32));
}

// ---- deeper hierarchies -----------------------------------------------

namespace
{

MemHierarchy::Params
threeLevelParams()
{
    MemHierarchy::Params p;
    CacheParams l3;
    l3.name = "l3";
    l3.sizeBytes = 2 * 1024 * 1024;
    l3.assoc = 8;
    l3.blockBytes = 64;
    l3.latency = 25;
    l3.numMshrs = 32;
    p.extraLevels = {l3};
    return p;
}

} // namespace

TEST(Hierarchy, ThreeLevelStackAddsL3Latency)
{
    MemHierarchy two;
    MemHierarchy three{threeLevelParams()};
    EXPECT_EQ(three.numSharedLevels(), 2u);
    EXPECT_EQ(three.sharedLevel(1).name(), "l3");

    // The cold path through the deeper stack pays the extra level on
    // both the request and the response leg.
    const Cycle cold2 = two.dataAccess(0x10000, 0, false);
    const Cycle cold3 = three.dataAccess(0x10000, 0, false);
    EXPECT_EQ(cold3, cold2 + 2 * 25);

    // The 32B neighbor misses the D$ but hits the shared stack
    // without another memory trip.
    const std::uint64_t mem_reads = three.memory().reads();
    const Cycle warm = three.dataAccess(0x10020, cold3, false);
    EXPECT_EQ(warm, cold3 + 2 + 10 + 2)
        << "D$ miss, L2 hit (same 64B block)";
    EXPECT_EQ(three.memory().reads(), mem_reads);
}

TEST(Hierarchy, DepthMismatchedStateIsRejected)
{
    MemHierarchy two;
    MemHierarchy three{threeLevelParams()};
    two.dataAccess(0x4000, 0, false);
    EXPECT_FALSE(three.importState(two.exportState()));
}

TEST(Hierarchy, ThreeLevelStateRoundTrip)
{
    MemHierarchy::Params params = threeLevelParams();
    params.dcache.prefetch.kind = PrefetchKind::Stride;
    MemHierarchy a{params};
    Cycle t = 0;
    t = a.dataAccess(0x4000, t, false);
    t = a.dataAccess(0x4040, t, true);
    t = a.dataAccess(0x4080, t, false);
    a.fetchAccess(0x1000, 0);

    MemHierarchy b{params};
    ASSERT_TRUE(b.importState(a.exportState()));
    EXPECT_TRUE(b.dcacheProbe(0x4000));
    EXPECT_TRUE(b.l2Probe(0x4000));
    EXPECT_TRUE(b.sharedLevel(1).probe(0x4000));
    // The imported stride table continues the learned pattern: the
    // next in-stride access prefetches in b exactly as it would in a.
    b.settle();
    b.dataAccess(0x40c0, 0, false);
    EXPECT_GE(b.dcache().prefetchIssued(), 1u);
}

TEST(Hierarchy, ModelWritebacksDrainsDirtyVictimsToMemory)
{
    MemHierarchy::Params params;  // paper geometry...
    params.modelWritebacks = true;
    // ...with a tiny direct-mapped D$ so evictions are easy to force.
    params.dcache.sizeBytes = 64;
    params.dcache.assoc = 1;
    params.dcache.blockBytes = 32;
    MemHierarchy mem{params};

    Cycle t = mem.dataAccess(0x0, 0, true);       // dirty block 0
    t = mem.dataAccess(0x40, t, false);           // evicts it (set 0)
    EXPECT_EQ(mem.dcache().writebacks(), 1u);
    // The victim lands in the L2 (which holds the block), not memory.
    EXPECT_EQ(mem.memory().writebacks(), 0u);

    // Force it all the way out: flush the L2 so the drain forwards.
    MemHierarchy::Params deep = params;
    deep.l2.sizeBytes = 128;
    deep.l2.assoc = 1;
    MemHierarchy small{deep};
    t = small.dataAccess(0x0, 0, true);
    // Evict from D$ (set 0) *and* push enough L2 sets to evict the
    // dirty line from the small L2 too.
    t = small.dataAccess(0x40, t, false);
    t = small.dataAccess(0x80, t, false);
    t = small.dataAccess(0xc0, t, false);
    EXPECT_GT(small.dcache().writebacks() + small.l2().writebacks(),
              0u);
}
