#include "mem/hierarchy.hpp"

#include "coherence/mesi.hpp"
#include "common/log.hpp"

namespace reno
{

SharedStack
MemHierarchy::buildShared(const Params &params)
{
    std::vector<CacheParams> stack;
    stack.push_back(params.l2);
    for (const CacheParams &extra : params.extraLevels)
        stack.push_back(extra);
    if (params.modelWritebacks) {
        for (CacheParams &level : stack)
            level.writebackTraffic = true;
    }

    SharedStack out;
    out.memory = std::make_unique<MainMemory>(params.memory,
                                              stack.back().blockBytes);
    out.levels.resize(stack.size());
    for (std::size_t i = stack.size(); i-- > 0;) {
        MemLevel *next = i + 1 < stack.size()
                             ? static_cast<MemLevel *>(
                                   out.levels[i + 1].get())
                             : static_cast<MemLevel *>(out.memory.get());
        out.levels[i] = std::make_unique<Cache>(stack[i], next);
    }
    for (const auto &level : out.levels)
        out.view.push_back(level.get());
    return out;
}

MemHierarchy::MemHierarchy(const Params &params, const Attach *attach)
    : params_(params)
{
    if (attach) {
        // Attached mode: the shared stack (and main memory) belong to
        // the System; this hierarchy builds only the private L1s on
        // top of the borrowed backend, and wires its D$ into the
        // coherence bus.
        if (!attach->backend || attach->shared.empty())
            fatal("memory hierarchy: attach without a shared stack");
        attach_ = *attach;
    } else {
        // Owning mode: the same attachment, to a stack of its own
        // and with no coherence bus.
        own_ = buildShared(params_);
        attach_ = {own_.levels[0].get(), own_.view, nullptr, 0};
    }

    CacheParams icache_params = params_.icache;
    CacheParams dcache_params = params_.dcache;
    if (params_.modelWritebacks)
        dcache_params.writebackTraffic = true;
    icache_ = std::make_unique<Cache>(icache_params, attach_.backend);
    dcache_ = std::make_unique<Cache>(dcache_params, attach_.backend);

    if (attach_.bus) {
        attach_.bus->attachCore(attach_.coreId, dcache_.get());
        CoherenceBus *const bus = attach_.bus;
        const unsigned core = attach_.coreId;
        dcache_->setEvictionListener(
            [bus, core](Addr addr, bool dirty) {
                bus->onEviction(core, addr, dirty);
            });
    }
}

std::vector<Cache *>
MemHierarchy::levelsMutable()
{
    std::vector<Cache *> out;
    out.reserve(2 + own_.levels.size());
    out.push_back(icache_.get());
    out.push_back(dcache_.get());
    for (const auto &level : own_.levels)
        out.push_back(level.get());
    return out;
}

std::vector<const Cache *>
MemHierarchy::levels() const
{
    const std::vector<Cache *> mut =
        const_cast<MemHierarchy *>(this)->levelsMutable();
    return {mut.begin(), mut.end()};
}

Cycle
MemHierarchy::fetchAccess(Addr pc, Cycle now)
{
    return icache_->access(pc, now, MemAccessKind::Read);
}

Cycle
MemHierarchy::dataAccess(Addr addr, Cycle now, bool is_write)
{
    lastCohPenalty_ = 0;
    if (attach_.bus) {
        lastCohPenalty_ = attach_.bus->beforeDataAccess(
            attach_.coreId, addr, is_write, now);
        now += lastCohPenalty_;
    }
    return dcache_->access(addr, now,
                           is_write ? MemAccessKind::Write
                                    : MemAccessKind::Read);
}

void
MemHierarchy::warmFetch(Addr pc)
{
    icache_->warmAccess(pc, MemAccessKind::Read);
}

void
MemHierarchy::warmData(Addr addr, bool is_write)
{
    if (attach_.bus)
        attach_.bus->beforeDataAccess(attach_.coreId, addr, is_write, 0);
    dcache_->warmAccess(addr, is_write ? MemAccessKind::Write
                                       : MemAccessKind::Read);
}

void
MemHierarchy::flush()
{
    for (Cache *level : levelsMutable())
        level->flush();
    if (own_.memory)
        own_.memory->flush();
}

void
MemHierarchy::copyStateFrom(const MemHierarchy &other)
{
    const auto &levels = own_.levels;
    if (levels.size() != other.own_.levels.size())
        fatal("memory hierarchy: copyStateFrom depth mismatch "
              "(%zu shared levels vs %zu)",
              levels.size(), other.own_.levels.size());
    icache_->copyStateFrom(*other.icache_);
    dcache_->copyStateFrom(*other.dcache_);
    for (std::size_t i = 0; i < levels.size(); ++i)
        levels[i]->copyStateFrom(*other.own_.levels[i]);
    if (own_.memory)
        own_.memory->copyStateFrom(*other.own_.memory);
}

void
MemHierarchy::settle()
{
    for (Cache *level : levelsMutable())
        level->settle();
    if (own_.memory)
        own_.memory->settle();
}

MemHierarchy::State
MemHierarchy::exportState() const
{
    State state;
    for (const Cache *level : levels())
        state.caches.push_back(level->exportState());
    return state;
}

bool
MemHierarchy::importState(const State &state)
{
    std::vector<Cache *> levels = levelsMutable();
    if (state.caches.size() != levels.size())
        return false;
    if (own_.memory)
        own_.memory->settle();
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (!levels[i]->importState(state.caches[i]))
            return false;
    }
    return true;
}

} // namespace reno
