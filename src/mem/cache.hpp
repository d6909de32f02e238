/**
 * @file
 * Timing-only set-associative cache, one MemLevel of a composable
 * hierarchy (mem/hierarchy.hpp assembles the full stack).
 *
 * The model carries no data (data lives in SparseMemory); an access
 * returns the cycle at which its data is available. Misses forward to
 * the next MemLevel through a virtual call, lines carry dirty state
 * so evicted victims generate modeled write-back traffic (when the
 * level is configured for it), and an optional per-level prefetcher
 * (mem/prefetcher.hpp) rides the demand stream.
 *
 * An access has two halves. The tag routine (updateTags) owns every
 * tag-state transition: lookup, LRU, dirty and prefetched flags, the
 * fill with its victim write-back, and prefetcher training and issue.
 * Its next-level requests go through a port. access() supplies the
 * timing port: MSHRs, the prefetch-fill queue, modeled cycles.
 * warmAccess() supplies the warming port, which recurses to the next
 * level's warmAccess() and computes no cycle. Both ports see the same
 * requests in the same order: the demand miss, then the victim
 * write-back, then the prefetches. Because tag fills are eager and
 * never depend on a cycle, a stream fed through warmAccess() leaves
 * exactly the tags, flags and training that access() leaves. This is
 * what functional warming (sample/warmup.hpp) relies on.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "mem/mem_level.hpp"
#include "mem/prefetcher.hpp"

namespace reno
{

/** Geometry, latency and policy of one cache level. */
struct CacheParams {
    std::string name = "cache";
    unsigned sizeBytes = 16 * 1024;
    unsigned assoc = 2;
    unsigned blockBytes = 32;
    unsigned latency = 1;       //!< access latency in cycles
    unsigned numMshrs = 16;     //!< max outstanding demand misses
    PrefetcherParams prefetch;  //!< per-level prefetch engine
    /** Send dirty victims to the next level as Writeback traffic.
     *  Off by default: the paper's model carries no write-back
     *  traffic, and the paper-geometry goldens depend on that. */
    bool writebackTraffic = false;
};

/**
 * Tag/LRU snapshot of one cache, for functional warming (sampled
 * simulation). Only valid lines are recorded, so snapshots of small
 * working sets stay small. Timing state (MSHRs, bus) is deliberately
 * excluded: it is transient and settles before a measurement window.
 * Dirty and prefetched flags, and the prefetcher's training table,
 * are architectural warm state and are included.
 */
struct CacheState {
    struct Line {
        std::uint32_t index = 0;  //!< position in the line array
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
        bool dirty = false;
        bool prefetched = false;
    };
    std::uint64_t lruClock = 0;
    std::vector<Line> validLines;
    PrefetchState prefetch;
};

/**
 * A set-associative, LRU, timing-only cache with MSHR-based miss
 * merging, write-back victim tracking and an optional prefetcher.
 * Misses are forwarded to the next MemLevel.
 */
class Cache final : public MemLevel
{
  public:
    /** fatal() on invalid geometry: zero associativity, block size,
     *  or MSHR count; a non-power-of-two block size; or a size
     *  smaller than one set. */
    Cache(const CacheParams &params, MemLevel *next);

    /**
     * Access @p addr at @p now; returns the cycle the data is ready.
     * Demand writes allocate like reads (write-allocate) and mark the
     * line dirty; evicting a dirty victim counts a write-back and,
     * with writebackTraffic set, drains it through the next level.
     * Prefetch-kind accesses are upper-level prefetch fills passing
     * through; Writeback-kind accesses update a present line in place
     * or forward without allocating.
     */
    Cycle access(Addr addr, Cycle now, MemAccessKind kind) override;

    /** The tag-state half of access() alone (see the file comment):
     *  no MSHR or prefetch-fill bookkeeping, no cycles. */
    void warmAccess(Addr addr, MemAccessKind kind) override;

    /** True iff @p addr would hit right now (no state change). */
    bool probe(Addr addr) const override;

    /** Invalidate all blocks, forget outstanding misses and training. */
    void flush() override;

    const std::string &name() const override { return params_.name; }

    /**
     * Adopt another same-geometry cache's complete state (tags, LRU,
     * in-flight misses, counters, prefetcher training). Used to seed
     * a core's caches from a functionally warmed snapshot; fatal() on
     * a geometry mismatch.
     */
    void copyStateFrom(const Cache &other);

    /** Drop in-flight timing state (MSHRs, prefetch fills); tags,
     *  LRU and prefetcher training stay. */
    void
    settle()
    {
        mshrs_.clear();
        prefetchFills_.clear();
    }

    /** Export / import the tag+LRU+prefetcher state (checkpoint
     *  persistence). importState returns false if a line or table
     *  index is out of range. */
    CacheState exportState() const;
    bool importState(const CacheState &state);

    /**
     * Coherence hooks (multi-core): a snooping bus invalidates or
     * cleans one block in a remote L1. Both return whether the block
     * was present, and whether its line was dirty, so the bus can
     * account the flushed data. Neither notifies the eviction
     * listener: the bus is already updating its own directory.
     */
    struct CohResult {
        bool present = false;
        bool wasDirty = false;
    };
    /** Drop @p addr's block (M/E/S -> I). */
    CohResult invalidateBlock(Addr addr);
    /** Clear @p addr's block's dirty bit (M -> S intervention: the
     *  data was flushed to the shared level; the copy stays). */
    CohResult cleanBlock(Addr addr);

    /**
     * Observer of demand evictions: called with the victim's byte
     * address and dirty flag whenever fill() replaces a valid line
     * (and for every valid line dropped by flush()). A coherence bus
     * uses it to retire its directory entry for the departing block.
     */
    using EvictionListener = std::function<void(Addr, bool)>;
    void setEvictionListener(EvictionListener listener)
    {
        evictionListener_ = std::move(listener);
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t mshrMerges() const { return mshrMerges_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t prefetchIssued() const { return prefetchIssued_; }
    std::uint64_t prefetchUseful() const { return prefetchUseful_; }

    const CacheParams &params() const { return params_; }

  private:
    struct Line {
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    struct TimedPort;
    struct WarmPort;

    Addr blockAddr(Addr addr) const { return addr >> blockShift_; }
    unsigned
    setIndex(Addr block) const
    {
        return static_cast<unsigned>(setMask_ ? block & setMask_
                                              : block % numSets_);
    }

    Line *findLine(Addr block);
    const Line *findLine(Addr block) const;

    /** The tag routine shared by access() and warmAccess(); next-level
     *  requests go through @p port. Returns whether @p addr's block
     *  was present. */
    template <class Port>
    bool updateTags(Addr addr, MemAccessKind kind, Port &port);

    /** Install @p block, evicting (and possibly writing back) LRU. */
    template <class Port>
    void fill(Addr block, bool dirty, bool prefetched, Port &port);

    /** Run the prefetcher on a demand access and issue its fills. */
    template <class Port>
    void prefetchAround(Addr block, bool miss, Port &port);

    CacheParams params_;
    unsigned numSets_;
    unsigned blockShift_ = 0;  //!< log2(blockBytes)
    /** numSets_ - 1 when numSets_ is a power of two, else 0 (index
     *  by modulo). A one-set cache has mask 0 and modulo 1: both
     *  give set 0. */
    Addr setMask_ = 0;
    std::vector<Line> lines_;      //!< numSets_ * assoc
    std::uint64_t lruClock_ = 0;

    /** Outstanding demand misses: block -> fill-complete cycle. */
    std::map<Addr, Cycle> mshrs_;

    /** In-flight prefetch fills: block -> fill-complete cycle. A
     *  separate queue, so prefetch traffic never occupies (or stalls
     *  on) a demand MSHR; entries are admitted only up to a
     *  2x-numMshrs bound, so the prefetch issue decision depends on
     *  the tag array alone -- the purity functional warming and
     *  checkpoint chop/resume identity rely on -- and the map stays
     *  small. A demand access catching up to an in-flight prefetch
     *  merges into its timing like an MSHR hit. */
    std::map<Addr, Cycle> prefetchFills_;

    MemLevel *next_;
    EvictionListener evictionListener_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::vector<Addr> prefetchBuf_;  //!< scratch, avoids per-access alloc

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t mshrMerges_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t prefetchIssued_ = 0;
    std::uint64_t prefetchUseful_ = 0;
};

} // namespace reno
