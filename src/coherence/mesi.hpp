/**
 * @file
 * Snooping MESI coherence over the private data caches of a
 * multi-core System (src/sys/system.hpp).
 *
 * The simulator is timing-only above the functional emulator: caches
 * carry tags, not data, so coherence is modeled as a directory of
 * line states driven by the cores' data-access streams. Every data
 * access consults the bus *before* its D$ lookup; the bus returns the
 * extra cycles the access pays for snoop traffic (invalidation
 * broadcasts, ownership upgrades, dirty-line interventions) and fixes
 * up the remote caches (invalidating or cleaning their copies) so the
 * L1 tag arrays always agree with the directory.
 *
 * State per line is the classic MESI lattice:
 *
 *   M (Modified)   one owner, dirty   -- remote read: intervention
 *                                        (flush + downgrade to S);
 *                                        remote write: invalidate.
 *   E (Exclusive)  one owner, clean   -- silent E->M on own write;
 *                                        remote read: downgrade to S.
 *   S (Shared)     >=1 sharers, clean -- own write: upgrade miss
 *                                        (invalidate other sharers).
 *   I (Invalid)    not present        -- read miss: E if no sharer,
 *                                        else S; write miss: M.
 *
 * Write-backs of M lines evicted by capacity reuse the caches' dirty
 * -line machinery; the bus only counts the coherence-induced flushes
 * (interventions and invalidations of dirty lines).
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "mem/cache.hpp"

namespace reno
{

struct SysParams;

/** MESI state of one line in one core's data cache. */
enum class MesiState { Invalid, Shared, Exclusive, Modified };

/**
 * Serializable snapshot of a CoherenceBus: the line-state directory
 * (sorted by line address, so the encoding of a given state is
 * unique) plus the event counters. Produced by functional warming and
 * by the checkpoint store; importState() rebuilds the directory on a
 * bus of the same core count.
 */
struct CoherenceBusState {
    struct Line {
        Addr line = 0;              //!< block-aligned address
        std::uint32_t sharers = 0;  //!< presence bitmask by core
        int owner = -1;             //!< E/M holder, -1 when shared
        bool modified = false;
    };
    std::vector<Line> lines;  //!< ascending by line address
    std::uint64_t invalidations = 0;
    std::uint64_t interventions = 0;
    std::uint64_t upgradeMisses = 0;
    std::uint64_t writebacks = 0;
};

/**
 * The snooping bus: a line-state directory over every core's private
 * D$, plus the event counters the SimResult coherence block reports.
 * Deterministic: state depends only on the order of calls, and the
 * System ticks cores round-robin in core order. A one-core bus has no
 * peer cache to snoop, so it keeps no directory: every access is
 * silent (penalty 0) and state() reports Invalid.
 */
class CoherenceBus
{
  public:
    /** fatal() on zero cores or a non-power-of-two block size. */
    CoherenceBus(const SysParams &params, unsigned blockBytes,
                 unsigned numCores);

    /** Register core @p core's private D$ (invalidation target).
     *  Every core must attach before the first access. */
    void attachCore(unsigned core, Cache *dcache);

    /**
     * Snoop for core @p core's demand access to @p addr at @p now.
     * Updates the directory and the remote caches; returns the extra
     * latency (0 on the silent paths) the access pays before its own
     * D$ lookup.
     */
    Cycle beforeDataAccess(unsigned core, Addr addr, bool is_write,
                           Cycle now);

    /** Core @p core's D$ evicted @p addr's block (capacity): retire
     *  its presence. Wired as the D$'s eviction listener. */
    void onEviction(unsigned core, Addr addr, bool dirty);

    /** Current MESI state of @p addr's line in @p core's D$. */
    MesiState state(unsigned core, Addr addr) const;

    /** Snapshot the directory (sorted) and the counters. */
    CoherenceBusState exportState() const;

    /** Replace directory and counters from a snapshot. Returns false
     *  (leaving the bus unchanged) when an entry names a core beyond
     *  this bus's count, is empty, or breaks the sorted order. */
    bool importState(const CoherenceBusState &state);

    std::uint64_t invalidations() const { return invalidations_; }
    std::uint64_t interventions() const { return interventions_; }
    std::uint64_t upgradeMisses() const { return upgradeMisses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    unsigned numCores() const { return numCores_; }

  private:
    /** One line's directory entry. owner >= 0 with modified means M,
     *  owner >= 0 clean means E; owner < 0 with sharers means S. */
    struct DirEntry {
        std::uint32_t sharers = 0;  //!< presence bitmask by core
        int owner = -1;             //!< E/M holder, -1 when shared
        bool modified = false;
    };

    Addr lineAddr(Addr addr) const { return addr & ~Addr{blockMask_}; }

    /** Invalidate every sharer of @p entry except @p keep; counts
     *  invalidations and dirty flushes. */
    void invalidateOthers(DirEntry &entry, Addr line, unsigned keep);

    unsigned numCores_;
    unsigned blockMask_;
    unsigned snoopLatency_;
    unsigned interventionLatency_;
    unsigned upgradeLatency_;

    std::vector<Cache *> dcaches_;
    std::unordered_map<Addr, DirEntry> directory_;

    std::uint64_t invalidations_ = 0;
    std::uint64_t interventions_ = 0;
    std::uint64_t upgradeMisses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace reno
