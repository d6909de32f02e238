#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace reno
{

/**
 * Timing half of Cache::access(): the next-level requests the tag
 * routine issues go out at their modeled cycles, demand misses hold
 * an MSHR (waiting for the earliest one to retire when all are busy),
 * prefetch fills enter their bounded queue, and the data-ready cycle
 * of the access is computed.
 */
struct Cache::TimedPort {
    Cache &c;
    const Cycle now;
    /** Cycle of the fill in progress: a victim it evicts drains then.
     *  Starts at now, when a pass-through Writeback drains. */
    Cycle fillAt = now;
    Cycle ready = 0;    //!< data-ready cycle of a demand hit or miss
    Cycle drained = 0;  //!< drain cycle of a pass-through Writeback

    void
    hit(Addr block)
    {
        // The block may still be in flight (a demand miss or a
        // prefetch fill): an access before the fill completes merges
        // into the outstanding request.
        const unsigned latency = c.params_.latency;
        if (auto it = c.mshrs_.find(block); it != c.mshrs_.end()) {
            ++c.mshrMerges_;
            ready = it->second + latency;
        } else if (auto pf = c.prefetchFills_.find(block);
                   pf != c.prefetchFills_.end()) {
            ++c.mshrMerges_;
            ready = pf->second + latency;
        } else {
            ++c.hits_;
            ready = now + latency;
        }
    }

    void
    demand(Addr addr, MemAccessKind kind)
    {
        // All MSHRs busy: wait for the earliest one to retire first.
        Cycle start = now;
        if (c.mshrs_.size() >= c.params_.numMshrs) {
            Cycle earliest = InvalidCycle;
            for (const auto &[blk, fill_cycle] : c.mshrs_) {
                if (fill_cycle < earliest)
                    earliest = fill_cycle;
            }
            for (auto it = c.mshrs_.begin(); it != c.mshrs_.end();) {
                if (it->second <= earliest)
                    it = c.mshrs_.erase(it);
                else
                    ++it;
            }
            start = std::max(start, earliest);
        }
        fillAt = start + c.params_.latency;
        const Cycle fill_done = c.next_->access(addr, fillAt, kind);
        c.mshrs_[c.blockAddr(addr)] = fill_done;
        ready = fill_done + c.params_.latency;
    }

    void
    prefetch(Addr block)
    {
        // The timing entry is recorded only while the queue has room:
        // untracked fills are merely timing-optimistic, and the bound
        // keeps the per-access retire scan O(numMshrs) instead of
        // growing without limit when a long stream is fed at one
        // cycle.
        fillAt = now + c.params_.latency;
        const Cycle done = c.next_->access(block * c.params_.blockBytes,
                                           fillAt,
                                           MemAccessKind::Prefetch);
        if (c.prefetchFills_.size() < 2 * c.params_.numMshrs)
            c.prefetchFills_[block] = done;
    }

    void
    writeback(Addr addr)
    {
        drained = c.next_->access(addr, fillAt, MemAccessKind::Writeback);
    }
};

/** Warming half: next-level requests recurse as warm accesses, in the
 *  order the tag routine issues them; no cycle is computed. */
struct Cache::WarmPort {
    Cache &c;

    void hit(Addr) { ++c.hits_; }

    void
    demand(Addr addr, MemAccessKind kind)
    {
        c.next_->warmAccess(addr, kind);
    }

    void
    prefetch(Addr block)
    {
        c.next_->warmAccess(block * c.params_.blockBytes,
                            MemAccessKind::Prefetch);
    }

    void
    writeback(Addr addr)
    {
        c.next_->warmAccess(addr, MemAccessKind::Writeback);
    }
};

Cache::Cache(const CacheParams &params, MemLevel *next)
    : params_(params), next_(next)
{
    if (!next_)
        fatal("cache %s: no next level", params_.name.c_str());
    if (params_.assoc == 0)
        fatal("cache %s: associativity must be positive",
              params_.name.c_str());
    if (params_.blockBytes == 0 ||
        (params_.blockBytes & (params_.blockBytes - 1)) != 0)
        fatal("cache %s: block size must be a positive power of two "
              "(got %u)",
              params_.name.c_str(), params_.blockBytes);
    if (params_.numMshrs == 0)
        fatal("cache %s: MSHR count must be positive",
              params_.name.c_str());
    numSets_ = params_.sizeBytes / (params_.blockBytes * params_.assoc);
    if (numSets_ == 0)
        fatal("cache %s: size smaller than one set", params_.name.c_str());
    blockShift_ = static_cast<unsigned>(std::countr_zero(params_.blockBytes));
    setMask_ = std::has_single_bit(numSets_) ? numSets_ - 1 : 0;
    lines_.resize(static_cast<size_t>(numSets_) * params_.assoc);
    prefetcher_ =
        makePrefetcher(params_.prefetch, params_.blockBytes,
                       params_.name);
}

Cache::Line *
Cache::findLine(Addr block)
{
    const unsigned set = setIndex(block);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[set * params_.assoc + w];
        if (line.valid && line.tag == block)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr block) const
{
    return const_cast<Cache *>(this)->findLine(block);
}

bool
Cache::probe(Addr addr) const
{
    return findLine(blockAddr(addr)) != nullptr;
}

template <class Port>
void
Cache::fill(Addr block, bool dirty, bool prefetched, Port &port)
{
    const unsigned set = setIndex(block);
    Line *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[set * params_.assoc + w];
        if (line.valid && line.tag == block) {
            line.dirty = line.dirty || dirty;  // merged fill
            return;
        }
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (victim->valid && victim->dirty) {
        ++writebacks_;
        if (params_.writebackTraffic)
            port.writeback(victim->tag * params_.blockBytes);
    }
    if (victim->valid && evictionListener_)
        evictionListener_(victim->tag * params_.blockBytes,
                          victim->dirty);
    *victim = Line{true, dirty, prefetched, block, ++lruClock_};
}

template <class Port>
void
Cache::prefetchAround(Addr block, bool miss, Port &port)
{
    if (!prefetcher_)
        return;
    prefetchBuf_.clear();
    prefetcher_->observe(block, miss, prefetchBuf_);
    for (const Addr cand : prefetchBuf_) {
        if (findLine(cand))
            continue;  // already resident
        // Prefetch fills ride their own queue, not a demand MSHR:
        // the issue decision depends only on the tag array, keeping
        // tags a pure function of the demand stream (the property
        // that functional warming and checkpoint chop/resume
        // identity rely on).
        port.prefetch(cand);
        fill(cand, false, true, port);
        ++prefetchIssued_;
    }
}

template <class Port>
bool
Cache::updateTags(Addr addr, MemAccessKind kind, Port &port)
{
    const Addr block = blockAddr(addr);

    if (kind == MemAccessKind::Writeback) {
        // Victim drained from the level above: update in place when
        // present (no recency change -- a drain is not reuse), else
        // pass through without allocating.
        if (Line *line = findLine(block)) {
            line->dirty = true;
            return true;
        }
        port.writeback(addr);
        return false;
    }

    const bool demand = kind != MemAccessKind::Prefetch;
    if (Line *line = findLine(block)) {
        line->lruStamp = ++lruClock_;
        if (demand && line->prefetched) {
            ++prefetchUseful_;
            line->prefetched = false;
        }
        if (kind == MemAccessKind::Write)
            line->dirty = true;
        port.hit(block);
        if (demand)
            prefetchAround(block, false, port);
        return true;
    }
    ++misses_;

    // Eager tag fill: the line is installed (and a victim evicted) at
    // miss time, after the request to the next level. The prefetched
    // flag marks only lines installed by THIS level's prefetcher
    // (prefetchAround), so a pass-through Prefetch fill from an upper
    // level never credits this level's prefetchUseful counter.
    port.demand(block * params_.blockBytes,
                demand ? MemAccessKind::Read : MemAccessKind::Prefetch);
    fill(block, kind == MemAccessKind::Write, false, port);
    if (demand)
        prefetchAround(block, true, port);
    return false;
}

Cycle
Cache::access(Addr addr, Cycle now, MemAccessKind kind)
{
    TimedPort port{*this, now};
    if (kind == MemAccessKind::Writeback)
        return updateTags(addr, kind, port) ? now + params_.latency
                                            : port.drained;

    // Retire MSHRs and prefetch fills whose fills have landed (the
    // tag array is updated eagerly at miss time).
    for (auto it = mshrs_.begin(); it != mshrs_.end();) {
        if (it->second <= now)
            it = mshrs_.erase(it);
        else
            ++it;
    }
    for (auto it = prefetchFills_.begin();
         it != prefetchFills_.end();) {
        if (it->second <= now)
            it = prefetchFills_.erase(it);
        else
            ++it;
    }
    updateTags(addr, kind, port);
    return port.ready;
}

void
Cache::warmAccess(Addr addr, MemAccessKind kind)
{
    WarmPort port{*this};
    updateTags(addr, kind, port);
}

Cache::CohResult
Cache::invalidateBlock(Addr addr)
{
    Line *line = findLine(blockAddr(addr));
    if (!line)
        return {};
    const CohResult result{true, line->dirty};
    *line = Line{};
    return result;
}

Cache::CohResult
Cache::cleanBlock(Addr addr)
{
    Line *line = findLine(blockAddr(addr));
    if (!line)
        return {};
    const CohResult result{true, line->dirty};
    line->dirty = false;
    return result;
}

void
Cache::flush()
{
    for (auto &line : lines_) {
        if (line.valid && evictionListener_)
            evictionListener_(line.tag * params_.blockBytes,
                              line.dirty);
        line = Line{};
    }
    mshrs_.clear();
    prefetchFills_.clear();
    if (prefetcher_)
        prefetcher_->reset();
}

void
Cache::copyStateFrom(const Cache &other)
{
    if (numSets_ != other.numSets_ ||
        params_.assoc != other.params_.assoc ||
        params_.blockBytes != other.params_.blockBytes ||
        params_.prefetch.kind != other.params_.prefetch.kind ||
        params_.prefetch.tableEntries !=
            other.params_.prefetch.tableEntries)
        fatal("cache %s: copyStateFrom geometry mismatch",
              params_.name.c_str());
    lines_ = other.lines_;
    lruClock_ = other.lruClock_;
    mshrs_ = other.mshrs_;
    prefetchFills_ = other.prefetchFills_;
    hits_ = other.hits_;
    misses_ = other.misses_;
    mshrMerges_ = other.mshrMerges_;
    writebacks_ = other.writebacks_;
    prefetchIssued_ = other.prefetchIssued_;
    prefetchUseful_ = other.prefetchUseful_;
    if (prefetcher_ && other.prefetcher_ &&
        !prefetcher_->importState(other.prefetcher_->exportState()))
        fatal("cache %s: copyStateFrom prefetcher mismatch",
              params_.name.c_str());
}

CacheState
Cache::exportState() const
{
    CacheState state;
    state.lruClock = lruClock_;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        if (!lines_[i].valid)
            continue;
        state.validLines.push_back(
            {static_cast<std::uint32_t>(i), lines_[i].tag,
             lines_[i].lruStamp, lines_[i].dirty,
             lines_[i].prefetched});
    }
    if (prefetcher_)
        state.prefetch = prefetcher_->exportState();
    return state;
}

bool
Cache::importState(const CacheState &state)
{
    for (auto &line : lines_)
        line = Line{};
    mshrs_.clear();
    prefetchFills_.clear();
    lruClock_ = state.lruClock;
    for (const CacheState::Line &l : state.validLines) {
        if (l.index >= lines_.size())
            return false;
        lines_[l.index] =
            {true, l.dirty, l.prefetched, l.tag, l.lruStamp};
    }
    if (prefetcher_)
        return prefetcher_->importState(state.prefetch);
    return state.prefetch.entries.empty();
}

} // namespace reno
