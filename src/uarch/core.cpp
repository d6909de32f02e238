#include "uarch/core.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/trace.hpp"
#include "uarch/run_loop.hpp"

namespace reno
{

Core::Core(const CoreParams &params, Emulator &emu,
           const MemHierarchy::Attach *attach)
    : params_(params), emu_(emu), renamer_(params.reno, params.numPregs),
      mem_(params.mem, attach), bp_(params.bpred),
      ssets_(params.ssitEntries, params.numStoreSets),
      state_(params_),
      statsLane_(attach ? strprintf("core%u.stats", attach->coreId)
                        : "core.stats"),
      fetch_(params_, emu_, mem_, bp_, state_),
      rename_(params_, renamer_, ssets_, state_, stats_),
      issue_(params_, mem_, ssets_, renamer_, state_, stats_),
      commit_(params_, renamer_, ssets_, mem_, state_, stats_)
{
    if (params.numPregs < NumLogRegs + 1)
        fatal("numPregs must exceed the number of logical registers");
    renamer_.initialize(emu.state().regs);
    // An emulator that already ran to completion -- a sampled window
    // whose start lies past this core's exit on a multi-core System
    // -- has nothing left to fetch; freeze instead of spinning an
    // empty pipeline forever.
    state_.finished = emu.done();
}

void
Core::tick()
{
    state_.active = false;
    commit_.tick();
    if (!state_.finished) {
        issue_.tick();
        rename_.tick();
        fetch_.tick();
    }
    ++state_.now;
}

Cycle
Core::nextEvent() const
{
    // Only pending times at or after now are events. An older one
    // belongs to work the idle tick could not do -- a load blocked by
    // its store set, a rename stalled on a full structure -- and that
    // work resumes only after some other event.
    const Cycle now = state_.now;
    Cycle next = InvalidCycle;
    auto due = [&](Cycle at) {
        if (at >= now && at < next)
            next = at;
        return next == now;
    };
    if (!state_.rob.empty()) {
        const Cycle done = state_.rob.front()->completeCycle;
        // A complete head the idle tick did not retire waits on the
        // retire port: tick on rather than model the drain.
        if (done < now || due(done))
            return now;
    }
    if (!state_.fetchBuf.empty() &&
        due(state_.fetchBuf.front()->fetchReady))
        return now;
    if (state_.fetchBlocked == 0 &&
        state_.fetchBuf.size() < params_.fetchBufEntries && !emu_.done() &&
        due(state_.fetchResumeAt))
        return now;
    for (const MachineState::CandidateList &list : state_.candidates) {
        for (const DynInst *d = list.head; d; d = d->issueNext) {
            if (due(d->readyAt))
                return now;
        }
    }
    return next;
}

void
Core::skipIdle(Cycle cycles)
{
    // Commit accounts first, as in a tick: its CPI bucket reads the
    // rename stall the idle tick recorded.
    commit_.skipIdle(cycles);
    rename_.skipIdle(cycles);
    state_.now += cycles;
    skipped_ += cycles;
}

SimResult
Core::run()
{
    return runUntilRetired(~std::uint64_t{0});
}

SimResult
Core::runUntilRetired(std::uint64_t retired_bound)
{
    RunLoop loop(state_.now, stats_.retired, params_.maxCycles);
    while (!state_.finished && stats_.retired < retired_bound &&
           state_.now < params_.maxCycles) {
        tick();
        const Cycle until = std::min(idleUntil(), loop.skipLimit());
        if (until > state_.now)
            skipIdle(until - state_.now);
        if (loop.sampleDue(state_.now))
            sampleStatsCounter();
        if (loop.stalled(state_.now, stats_.retired)) {
            panic("no instruction retired for %llu cycles "
                  "(cycle %llu, %llu retired, rob %zu, free pregs %u): "
                  "pipeline deadlock",
                  static_cast<unsigned long long>(RunLoop::RetireGapBound),
                  static_cast<unsigned long long>(state_.now),
                  static_cast<unsigned long long>(stats_.retired),
                  state_.rob.size(), renamer_.physRegs().numFree());
        }
    }
    if (!state_.finished && stats_.retired < retired_bound)
        warn("simulation hit the cycle limit before program exit");
    return result();
}

void
Core::sampleStatsCounter()
{
    obs::TraceArgs args;
    args.add("cycle", static_cast<std::uint64_t>(state_.now));
    const SimResult r = result();
    for (const SimStatField &f : simResultFields())
        args.add(f.name, statValue(r, f));
    obs::Tracer::instance().counter(statsLane_, args.str());
}

SimResult
Core::result() const
{
    SimResult r;
    r.cycles = state_.now;
    r.retired = stats_.retired;
    for (unsigned k = 0; k < NumElimKinds; ++k)
        r.elim[k] = stats_.retiredElim[k];
    r.retiredLoads = stats_.retiredLoads;
    r.retiredStores = stats_.retiredStores;
    r.retiredBranches = stats_.retiredBranches;
    r.itAccesses = renamer_.it().accesses();
    r.itHits = renamer_.it().hits();
    r.overflowCancels = renamer_.overflowCancels();
    r.groupDepCancels = renamer_.groupDepCancels();
    r.violationSquashes = stats_.violationSquashes;
    r.misintegrationFlushes = stats_.misintegrationFlushes;
    r.bpLookups = bp_.lookups();
    r.bpMispredicts = bp_.mispredicts();
    r.bpDirMispredicts = bp_.dirMispredicts();
    r.bpTargetMispredicts = bp_.targetMispredicts();
    r.bpRasMispredicts = bp_.rasMispredicts();
    r.bpRasOverflows = bp_.rasOverflows();
    r.bpTageProviderHits = bp_.direction().providerHits();
    r.bpTageAltHits = bp_.direction().altHits();
    r.bpPerceptronConfident = bp_.direction().confidentPredicts();
    r.icacheMisses = mem_.icache().misses();
    r.dcacheMisses = mem_.dcache().misses();
    // Per-level slots: I$, D$, L2, then every deeper shared level
    // aggregated into the "l3" slot (see NumMemStatLevels). An
    // attached core reports only its private L1s (levels() stops
    // there); the owning System accounts the shared stack once.
    if (!mem_.attached())
        r.l2Misses = mem_.l2().misses();
    const std::vector<const Cache *> levels = mem_.levels();
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const unsigned slot = static_cast<unsigned>(
            std::min<std::size_t>(i, NumMemStatLevels - 1));
        const Cache &c = *levels[i];
        r.memHits[slot] += c.hits();
        r.memMshrMerges[slot] += c.mshrMerges();
        r.memWritebacks[slot] += c.writebacks();
        r.memPrefetchIssued[slot] += c.prefetchIssued();
        r.memPrefetchUseful[slot] += c.prefetchUseful();
        if (i >= 3)
            r.l3Misses += c.misses();
    }
    // Per-core slot 0: a lone core IS core 0. The System remaps these
    // into each core's slot when it aggregates.
    r.coreCycles[0] = state_.now;
    r.coreRetired[0] = stats_.retired;
    r.stallRob = stats_.stallRob;
    r.stallIq = stats_.stallIq;
    r.stallPregs = stats_.stallPregs;
    r.stallLsq = stats_.stallLsq;
    return r;
}

} // namespace reno
