#include "sys/system.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "uarch/run_loop.hpp"

namespace reno
{

namespace
{

/** Validate the core count before any member needs it. */
unsigned
checkedNumCores(const SysParams &sys)
{
    if (sys.numCores < 1 || sys.numCores > SysParams::MaxCores)
        fatal("system: core count must be in [1, %u] (got %u)",
              SysParams::MaxCores, sys.numCores);
    return sys.numCores;
}

} // namespace

System::System(const CoreParams &params,
               const std::vector<Emulator *> &emus)
    : params_(params), shared_(MemHierarchy::buildShared(params.mem)),
      bus_(params.sys, params.mem.dcache.blockBytes,
           checkedNumCores(params.sys))
{
    const unsigned n = bus_.numCores();
    if (emus.size() != n)
        fatal("system: %u cores need %u emulators (got %zu)", n, n,
              emus.size());

    cores_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        if (!emus[i])
            fatal("system: null emulator for core %u", i);
        const MemHierarchy::Attach attach{shared_.levels[0].get(),
                                          shared_.view, &bus_, i};
        cores_.push_back(
            std::make_unique<Core>(params_, *emus[i], &attach));
    }
}

bool
System::finished() const
{
    return std::all_of(cores_.begin(), cores_.end(),
                       [](const auto &c) { return c->finished(); });
}

std::uint64_t
System::totalRetired() const
{
    std::uint64_t sum = 0;
    for (const auto &core : cores_)
        sum += core->retiredCount();
    return sum;
}

void
System::tick()
{
    for (auto &core : cores_) {
        if (!core->finished())
            core->tick();
    }
    ++now_;
}

SimResult
System::run()
{
    const SimResult r = runUntilRetired(~std::uint64_t{0});

    auto &metrics = obs::MetricsRegistry::instance();
    metrics.counter("sys.coh.invalidations").inc(bus_.invalidations());
    metrics.counter("sys.coh.interventions").inc(bus_.interventions());
    metrics.counter("sys.coh.upgradeMisses").inc(bus_.upgradeMisses());
    metrics.counter("sys.coh.writebacks").inc(bus_.writebacks());
    return r;
}

SimResult
System::runUntilRetired(std::uint64_t retired_bound)
{
    // Same watchdog as Core::runUntilRetired, on aggregate
    // retirement: bus penalties only delay accesses, they cannot
    // deadlock, so a system-wide retirement gap is still a bug.
    RunLoop loop(now_, totalRetired(), params_.maxCycles);
    const std::uint64_t skipped_before = skipped_;

    while (!finished() && totalRetired() < retired_bound &&
           now_ < params_.maxCycles) {
        tick();
        // Skip only when every live core idled, all by the same count.
        Cycle until = loop.skipLimit();
        bool live = false;
        for (const auto &core : cores_) {
            if (!core->finished()) {
                live = true;
                until = std::min(until, core->idleUntil());
            }
        }
        if (live && until > now_) {
            for (auto &core : cores_) {
                if (!core->finished())
                    core->skipIdle(until - now_);
            }
            skipped_ += until - now_;
            now_ = until;
        }
        if (loop.sampleDue(now_)) {
            // One sample per core per interval, each on its own
            // "core<i>.stats" lane.
            for (auto &core : cores_)
                core->sampleStatsCounter();
        }
        const std::uint64_t retired = totalRetired();
        if (loop.stalled(now_, retired)) {
            panic("no core retired an instruction for %llu cycles "
                  "(cycle %llu, %llu retired total): pipeline or "
                  "coherence deadlock",
                  static_cast<unsigned long long>(RunLoop::RetireGapBound),
                  static_cast<unsigned long long>(now_),
                  static_cast<unsigned long long>(retired));
        }
    }
    if (!finished() && now_ >= params_.maxCycles)
        warn("multi-core simulation hit the cycle limit before every "
             "core exited");
    // Host-side only: a System runs through here for every detailed
    // run and sampled window, so the counter sees them all.
    obs::MetricsRegistry::instance()
        .counter("sys.cycles_skipped")
        .inc(skipped_ - skipped_before);
    return result();
}

SimResult
System::result() const
{
    SimResult agg;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        SimResult c = cores_[i]->result();
        // A lone core reports itself in slot 0; remap to this core's
        // slot (deep cores aggregate into the last one) and keep the
        // per-core arrays out of the whole-machine sum.
        const std::uint64_t core_cycles = c.coreCycles[0];
        const std::uint64_t core_retired = c.coreRetired[0];
        c.coreCycles[0] = 0;
        c.coreRetired[0] = 0;
        for (const SimStatField &f : simResultFields())
            statRef(agg, f) += statValue(c, f);
        const unsigned slot = static_cast<unsigned>(
            std::min<std::size_t>(i, NumCoreStatSlots - 1));
        agg.coreCycles[slot] += core_cycles;
        agg.coreRetired[slot] += core_retired;
    }
    // System time is the interleaved cycle count, not the sum of the
    // cores' clocks.
    agg.cycles = now_;

    // The shared stack, accounted once (attached cores report only
    // their private L1s). Stack index 0 is machine level 2 (the L2);
    // deeper levels aggregate into the "l3" slot.
    agg.l2Misses = shared_.levels[0]->misses();
    for (std::size_t i = 0; i < shared_.levels.size(); ++i) {
        const unsigned slot = static_cast<unsigned>(
            std::min<std::size_t>(i + 2, NumMemStatLevels - 1));
        const Cache &c = *shared_.levels[i];
        agg.memHits[slot] += c.hits();
        agg.memMshrMerges[slot] += c.mshrMerges();
        agg.memWritebacks[slot] += c.writebacks();
        agg.memPrefetchIssued[slot] += c.prefetchIssued();
        agg.memPrefetchUseful[slot] += c.prefetchUseful();
        if (i >= 1)
            agg.l3Misses += c.misses();
    }

    agg.cohInvalidations = bus_.invalidations();
    agg.cohInterventions = bus_.interventions();
    agg.cohUpgradeMisses = bus_.upgradeMisses();
    agg.cohWritebacks = bus_.writebacks();
    return agg;
}

} // namespace reno
