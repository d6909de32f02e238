/**
 * @file
 * Hierarchical CPI-stack cycle accounting.
 *
 * Every commit-stage tick is classified into exactly one bucket of an
 * exhaustive, mutually exclusive tree:
 *
 *   base                     committed >= 1 instruction this cycle
 *   frontend.icache          ROB empty, fetch waiting on the I-cache
 *   frontend.bpred           ROB empty behind a mispredict redirect
 *   backend.rob              head renamed+issued, draining exec latency,
 *                            or rename blocked on a full ROB
 *   backend.iq               head waiting to issue (or rename blocked
 *                            on a full issue queue)
 *   backend.pregs            rename blocked on free physical registers
 *   backend.lsq              head blocked on a memory dependence, a
 *                            store draining, or rename blocked on a
 *                            full LQ/SQ
 *   backend.dcache.l1        head is a load serviced by the L1 / a
 *                            forwarding store (port + hit latency)
 *   backend.dcache.l2        head is a load serviced by a shared level
 *   backend.dcache.mem       head is a load serviced by memory
 *   backend.coherence        head is a load delayed by the MESI bus
 *   drain                    retire-port vortex, squash refill,
 *                            startup/finish bubbles
 *
 * The accountant increments exactly one bucket per CommitStage::tick,
 * Core::tick calls the commit stage exactly once per cycle, and an
 * idle skip of k cycles charges one bucket k times, so
 *
 *   sum(buckets) == cycles   (per core, by construction).
 *
 * Like the Tracer, accounting is off by default (one relaxed-atomic
 * check at Core construction); SimResult and every digest/golden are
 * untouched, so result caching stays byte-identical either way.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace reno::obs
{

/** One leaf of the CPI-stack tree. Keep in sync with cpiBucketName. */
enum class CpiBucket : std::uint8_t {
    Base,
    FrontIcache,
    FrontBpred,
    BackRob,
    BackIq,
    BackPregs,
    BackLsq,
    BackDcacheL1,
    BackDcacheL2,
    BackDcacheMem,
    BackCoherence,
    Drain,
};

inline constexpr std::size_t NumCpiBuckets = 12;

/** Dotted hierarchical name ("backend.dcache.l2") of a bucket. */
const char *cpiBucketName(CpiBucket b);

/** Per-core (or whole-machine) bucket totals. POD; copy freely. */
struct CpiStack {
    std::array<std::uint64_t, NumCpiBuckets> cycles{};

    void
    inc(CpiBucket b, std::uint64_t n = 1)
    {
        cycles[static_cast<std::size_t>(b)] += n;
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t c : cycles)
            sum += c;
        return sum;
    }

    std::uint64_t
    get(CpiBucket b) const
    {
        return cycles[static_cast<std::size_t>(b)];
    }

    /** This stack minus an earlier snapshot (interval accounting). */
    CpiStack
    delta(const CpiStack &pre) const
    {
        CpiStack d;
        for (std::size_t i = 0; i < NumCpiBuckets; ++i)
            d.cycles[i] = cycles[i] - pre.cycles[i];
        return d;
    }

    /** Accumulate another stack (per-core -> whole-machine). */
    void
    accumulate(const CpiStack &add)
    {
        for (std::size_t i = 0; i < NumCpiBuckets; ++i)
            cycles[i] += add.cycles[i];
    }
};

/**
 * Process-wide switchboard for CPI accounting and hotspot profiling
 * (the Tracer idiom: relaxed atomics, off by default). Cores check it
 * once at construction, so toggles apply to cores built afterwards.
 */
class CpiAccounting
{
  public:
    static CpiAccounting &instance();

    bool
    stackEnabled() const
    {
        return stack_.load(std::memory_order_relaxed);
    }
    void
    setStackEnabled(bool on)
    {
        stack_.store(on, std::memory_order_relaxed);
    }

    /** Hotspot-profiler top-N (0 = profiling off). */
    unsigned
    hotspotTopN() const
    {
        return hotTopN_.load(std::memory_order_relaxed);
    }
    void
    setHotspotTopN(unsigned n)
    {
        hotTopN_.store(n, std::memory_order_relaxed);
    }

  private:
    CpiAccounting() = default;

    std::atomic<bool> stack_{false};
    std::atomic<unsigned> hotTopN_{0};
};

} // namespace reno::obs
