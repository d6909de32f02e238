#include "coherence/mesi.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "uarch/params.hpp"

namespace reno
{

CoherenceBus::CoherenceBus(const SysParams &params,
                           unsigned blockBytes, unsigned numCores)
    : numCores_(numCores), blockMask_(blockBytes - 1),
      snoopLatency_(params.snoopLatency),
      interventionLatency_(params.interventionLatency),
      upgradeLatency_(params.upgradeLatency),
      dcaches_(numCores, nullptr)
{
    if (numCores == 0)
        fatal("coherence bus: core count must be positive");
    if (numCores > 32)
        fatal("coherence bus: sharer bitmask holds at most 32 cores "
              "(got %u)", numCores);
    if (blockBytes == 0 || (blockBytes & (blockBytes - 1)) != 0)
        fatal("coherence bus: block size must be a positive power of "
              "two (got %u)", blockBytes);
}

void
CoherenceBus::attachCore(unsigned core, Cache *dcache)
{
    if (core >= numCores_)
        fatal("coherence bus: attaching core %u of %u", core,
              numCores_);
    dcaches_[core] = dcache;
}

void
CoherenceBus::invalidateOthers(DirEntry &entry, Addr line,
                               unsigned keep)
{
    for (unsigned c = 0; c < numCores_; ++c) {
        if (c == keep || !(entry.sharers & (1u << c)))
            continue;
        ++invalidations_;
        if (dcaches_[c]) {
            // The directory counts the dirty flush off the L1's own
            // dirty bit: the line's data moves to the shared level
            // before it is dropped.
            if (dcaches_[c]->invalidateBlock(line).wasDirty)
                ++writebacks_;
        }
    }
    entry.sharers &= 1u << keep;
    entry.owner = -1;
    entry.modified = false;
}

Cycle
CoherenceBus::beforeDataAccess(unsigned core, Addr addr,
                               bool is_write, Cycle)
{
    if (core >= numCores_)
        fatal("coherence bus: access from core %u of %u", core,
              numCores_);
    // A lone core has no peer cache to snoop: every transition below
    // is silent for it, so the directory is not kept at all.
    if (numCores_ == 1)
        return 0;
    const Addr line = lineAddr(addr);
    DirEntry &entry = directory_[line];
    const std::uint32_t bit = 1u << core;
    const bool present = (entry.sharers & bit) != 0;
    Cycle penalty = 0;

    if (!is_write) {
        if (present) {
            // M/E/S read hit: silent, whatever the state.
        } else if (entry.sharers == 0) {
            // I -> E: sole copy, no bus traffic beyond the fill.
            entry.sharers = bit;
            entry.owner = static_cast<int>(core);
            entry.modified = false;
        } else if (entry.owner >= 0) {
            // Remote E/M -> both end Shared. A Modified owner flushes
            // its line to the shared level first (intervention).
            if (entry.modified) {
                ++interventions_;
                if (dcaches_[entry.owner] &&
                    dcaches_[entry.owner]->cleanBlock(line).wasDirty)
                    ++writebacks_;
                penalty = interventionLatency_;
            } else {
                penalty = snoopLatency_;
            }
            entry.owner = -1;
            entry.modified = false;
            entry.sharers |= bit;
        } else {
            // Join the sharers; the data comes from the shared level.
            entry.sharers |= bit;
        }
    } else {
        if (present && entry.owner == static_cast<int>(core)) {
            // E -> M silently, or M -> M.
            entry.modified = true;
        } else if (present) {
            // S -> M: upgrade miss. The line is resident (the D$ will
            // report a hit) but ownership costs a broadcast.
            ++upgradeMisses_;
            invalidateOthers(entry, line, core);
            entry.owner = static_cast<int>(core);
            entry.modified = true;
            penalty = upgradeLatency_;
        } else if (entry.sharers == 0) {
            // I -> M: read-for-ownership, no other copies.
            entry.sharers = bit;
            entry.owner = static_cast<int>(core);
            entry.modified = true;
        } else {
            // I -> M over remote copies: invalidate them all; a dirty
            // remote owner flushes first (intervention).
            if (entry.owner >= 0 && entry.modified) {
                ++interventions_;
                penalty = interventionLatency_;
            } else {
                penalty = snoopLatency_;
            }
            invalidateOthers(entry, line, core);
            entry.sharers = bit;
            entry.owner = static_cast<int>(core);
            entry.modified = true;
        }
    }
    return penalty;
}

void
CoherenceBus::onEviction(unsigned core, Addr addr, bool)
{
    if (numCores_ == 1)
        return;
    const auto it = directory_.find(lineAddr(addr));
    if (it == directory_.end())
        return;
    DirEntry &entry = it->second;
    entry.sharers &= ~(1u << core);
    if (entry.owner == static_cast<int>(core)) {
        entry.owner = -1;
        entry.modified = false;
    }
    if (entry.sharers == 0)
        directory_.erase(it);
}

CoherenceBusState
CoherenceBus::exportState() const
{
    CoherenceBusState out;
    out.lines.reserve(directory_.size());
    for (const auto &[line, entry] : directory_)
        out.lines.push_back(
            {line, entry.sharers, entry.owner, entry.modified});
    std::sort(out.lines.begin(), out.lines.end(),
              [](const CoherenceBusState::Line &a,
                 const CoherenceBusState::Line &b) {
                  return a.line < b.line;
              });
    out.invalidations = invalidations_;
    out.interventions = interventions_;
    out.upgradeMisses = upgradeMisses_;
    out.writebacks = writebacks_;
    return out;
}

bool
CoherenceBus::importState(const CoherenceBusState &state)
{
    const std::uint32_t legal_sharers =
        numCores_ >= 32 ? ~0u : (1u << numCores_) - 1;
    for (std::size_t i = 0; i < state.lines.size(); ++i) {
        const CoherenceBusState::Line &l = state.lines[i];
        if (l.sharers == 0 || (l.sharers & ~legal_sharers) != 0)
            return false;
        if (l.owner >= static_cast<int>(numCores_) ||
            (l.owner >= 0 && !(l.sharers & (1u << l.owner))) ||
            (l.modified && l.owner < 0))
            return false;
        if (i > 0 && state.lines[i - 1].line >= l.line)
            return false;
    }
    directory_.clear();
    for (const CoherenceBusState::Line &l : state.lines) {
        DirEntry entry;
        entry.sharers = l.sharers;
        entry.owner = l.owner;
        entry.modified = l.modified;
        directory_.emplace(l.line, entry);
    }
    invalidations_ = state.invalidations;
    interventions_ = state.interventions;
    upgradeMisses_ = state.upgradeMisses;
    writebacks_ = state.writebacks;
    return true;
}

MesiState
CoherenceBus::state(unsigned core, Addr addr) const
{
    const auto it = directory_.find(lineAddr(addr));
    if (it == directory_.end())
        return MesiState::Invalid;
    const DirEntry &entry = it->second;
    if (!(entry.sharers & (1u << core)))
        return MesiState::Invalid;
    if (entry.owner == static_cast<int>(core))
        return entry.modified ? MesiState::Modified
                              : MesiState::Exclusive;
    return MesiState::Shared;
}

} // namespace reno
