/**
 * @file
 * Bounded per-PC hotspot profiler.
 *
 * A fixed-size open-addressing hash table keyed by pc accumulates two
 * series per static instruction: retired-instruction counts (where the
 * work is) and commit-blocked stall cycles attributed to the ROB head
 * (where the time goes). The table never allocates after construction
 * and never grows: once full, new pcs land in a `dropped` counter, so
 * profiling a pathological workload degrades gracefully instead of
 * eating memory. Off by default (CpiAccounting::hotspotTopN == 0);
 * nothing on the simulated path changes when disabled.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace reno::obs
{

class HotspotProfile
{
  public:
    /** One profiled static instruction. */
    struct Entry {
        Addr pc = 0;
        std::uint64_t retired = 0;
        std::uint64_t stallCycles = 0;
    };

    explicit HotspotProfile(std::size_t slots = 8192);

    /** Count one retirement of @p pc. */
    void
    retire(Addr pc)
    {
        if (Slot *s = find(pc))
            ++s->retired;
    }

    /** Charge @p n commit-blocked cycles to the ROB head @p pc. */
    void
    stall(Addr pc, std::uint64_t n = 1)
    {
        if (Slot *s = find(pc, n))
            s->stallCycles += n;
    }

    /** Top @p n entries by retired count (desc, pc-asc tiebreak). */
    std::vector<Entry> topByRetired(std::size_t n) const;
    /** Top @p n entries by stall cycles (desc, pc-asc tiebreak). */
    std::vector<Entry> topByStall(std::size_t n) const;

    /** Events lost because the table was full. */
    std::uint64_t dropped() const { return dropped_; }
    /** Distinct pcs currently tracked. */
    std::size_t occupied() const { return occupied_; }

  private:
    struct Slot {
        Addr pc = 0;
        bool used = false;
        std::uint64_t retired = 0;
        std::uint64_t stallCycles = 0;
    };

    /** @p pc's slot, claimed on first sight; null (and @p events
     *  more dropped) when the table is full. */
    Slot *find(Addr pc, std::uint64_t events = 1);
    std::vector<Entry> top(std::size_t n, bool by_stall) const;

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t occupied_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace reno::obs
