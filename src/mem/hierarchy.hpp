/**
 * @file
 * The full memory hierarchy used by the core, assembled declaratively
 * from MemLevel nodes: split L1s (I$ and D$) backed by a stack of
 * shared levels (L2, then any number of deeper levels), terminated by
 * main memory over a contended bus.
 *
 * The default reproduces the paper's configuration (section 4.1):
 * 16KB 2-way 32B 1-cycle I$, 32KB 2-way 32B 2-cycle D$, 512KB 4-way
 * 64B 10-cycle L2, 100-cycle main memory reached over a 16B bus
 * clocked at one quarter of the core frequency, and a maximum of 16
 * outstanding misses (MSHRs). Deeper stacks (an L3), per-level
 * prefetchers and write-back traffic modeling are opt-in through
 * Params, so the paper-geometry outputs are bit-identical to the
 * fixed three-cache model this replaces.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "mem/main_memory.hpp"

namespace reno
{

class CoherenceBus;

/**
 * The shared levels below the L1s -- the L2, then any deeper levels --
 * over main memory. An owning MemHierarchy, a System and a WarmState
 * each own one, all built by MemHierarchy::buildShared().
 */
struct SharedStack {
    std::unique_ptr<MainMemory> memory;
    std::vector<std::unique_ptr<Cache>> levels;  //!< L2 first
    std::vector<const Cache *> view;  //!< levels, as borrowed views
};

/** The hierarchy: I$ + D$ over shared levels over main memory. */
class MemHierarchy
{
  public:
    struct Params {
        CacheParams icache{"icache", 16 * 1024, 2, 32, 1, 16, {},
                           false};
        CacheParams dcache{"dcache", 32 * 1024, 2, 32, 2, 16, {},
                           false};
        CacheParams l2{"l2", 512 * 1024, 4, 64, 10, 16, {}, false};
        /** Shared levels below the L2 (an L3, an L4...), nearest
         *  first. Empty = the paper's two-level stack. */
        std::vector<CacheParams> extraLevels;
        MemoryParams memory;
        /** Model dirty-victim write-back traffic on every level's
         *  bus (D$ and shared levels; the I$ never dirties lines).
         *  Off by default: the paper's model carries none. */
        bool modelWritebacks = false;
    };

    /**
     * Multi-core attachment: build only the private L1s and back them
     * by a shared stack owned elsewhere (the System), with every data
     * access snooped by the coherence bus first. The borrowed
     * pointers must outlive the hierarchy.
     */
    struct Attach {
        MemLevel *backend = nullptr;  //!< first shared level (the L2)
        /** The shared stack, nearest first (probes and reporting). */
        std::vector<const Cache *> shared;
        CoherenceBus *bus = nullptr;
        unsigned coreId = 0;
    };

    /**
     * Assemble @p params' shared stack back to front: main memory,
     * whose bus moves one block of the deepest level per transfer,
     * then the levels deepest first, each modelling write-back
     * traffic when params.modelWritebacks.
     */
    static SharedStack buildShared(const Params &params);

    /** Owning mode when @p attach is null: the L1s attach to a
     *  shared stack of their own, with no coherence bus. Attached
     *  mode otherwise. */
    MemHierarchy(const Params &params, const Attach *attach);
    explicit MemHierarchy(const Params &params)
        : MemHierarchy(params, nullptr)
    {
    }
    MemHierarchy() : MemHierarchy(Params{}) {}

    /** True when the shared stack is borrowed from a System. */
    bool attached() const { return own_.memory == nullptr; }

    /** Instruction fetch of the block containing @p pc. */
    Cycle fetchAccess(Addr pc, Cycle now);

    /** Data access. In attached mode the coherence bus snoops first
     *  and its penalty delays the D$ lookup. */
    Cycle dataAccess(Addr addr, Cycle now, bool is_write);

    /**
     * Functional-warming twins of fetchAccess()/dataAccess(): the same
     * tag-state changes through Cache::warmAccess(), with no timing.
     * In attached mode the coherence bus still updates its directory
     * and the remote L1s first; its latency penalty is dropped.
     */
    void warmFetch(Addr pc);
    void warmData(Addr addr, bool is_write);

    /** Coherence-bus penalty the most recent dataAccess paid (cycles;
     *  always 0 in single-core/owning mode). CPI-stack attribution. */
    Cycle lastCohPenalty() const { return lastCohPenalty_; }

    /** Would a load of @p addr hit in the D$ right now? */
    bool dcacheProbe(Addr addr) const { return dcache_->probe(addr); }
    /** Would it hit in the first shared level (the L2)? */
    bool
    l2Probe(Addr addr) const
    {
        return sharedStack().front()->probe(addr);
    }

    /** Would it hit in ANY shared level? Load-latency classification
     *  (MemHitLevel): a hit anywhere on-chip is a cache hit, not a
     *  memory access, however deep the stack. Equals l2Probe() for
     *  the paper's two-level default. */
    bool
    sharedProbe(Addr addr) const
    {
        for (const Cache *level : sharedStack()) {
            if (level->probe(addr))
                return true;
        }
        return false;
    }

    void flush();

    /**
     * Adopt another same-geometry hierarchy's state (tags, LRU,
     * counters, prefetcher training, bus). MemHierarchy is
     * deliberately not copyable (the levels hold pointers into their
     * owner); this is the supported way to clone its state.
     */
    void copyStateFrom(const MemHierarchy &other);

    /** Drop in-flight timing state everywhere (MSHRs, bus). */
    void settle();

    /** Snapshot of every cache level, access order: I$, D$, then the
     *  shared stack nearest-first (persistence). */
    struct State {
        std::vector<CacheState> caches;
    };
    State exportState() const;
    bool importState(const State &state);

    const Cache &icache() const { return *icache_; }
    const Cache &dcache() const { return *dcache_; }
    /** The first shared level (owned or borrowed). */
    const Cache &l2() const { return *sharedStack().front(); }

    /** The shared stack below the L1s, nearest first (owned in
     *  single-core mode, borrowed from the System when attached). */
    std::size_t numSharedLevels() const { return attach_.shared.size(); }
    const Cache &sharedLevel(std::size_t i) const
    {
        return *attach_.shared[i];
    }

    /** Owning mode only (the System owns memory when attached). */
    const MainMemory &memory() const { return *own_.memory; }

    /**
     * Every cache level this hierarchy OWNS, in State order: I$, D$,
     * then the shared stack when owning. Attached hierarchies report
     * (and persist, via exportState) only their private L1s; the
     * System accounts the shared stack once.
     */
    std::vector<const Cache *> levels() const;

    const Params &params() const { return params_; }

  private:
    std::vector<Cache *> levelsMutable();
    const std::vector<const Cache *> &sharedStack() const
    {
        return attach_.shared;
    }

    Params params_;
    /** Where the L1s attach: to own_ when owning, else to the
     *  System's stack (attach_.shared is the probe/report hot path). */
    Attach attach_;
    Cycle lastCohPenalty_ = 0;
    SharedStack own_;  //!< empty when attached
    std::unique_ptr<Cache> icache_;
    std::unique_ptr<Cache> dcache_;
};

} // namespace reno
