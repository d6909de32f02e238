#include "reno/integration_table.hpp"

#include "common/log.hpp"

namespace reno
{

IntegrationTable::IntegrationTable(const ItParams &params)
    : params_(params)
{
    if (params_.assoc == 0 || params_.entries % params_.assoc != 0)
        fatal("integration table: entries must be a multiple of assoc");
    numSets_ = params_.entries / params_.assoc;
    slots_.resize(params_.entries);
    lru_.resize(params_.entries);
}

unsigned
IntegrationTable::setIndex(Opcode op, std::int32_t imm, const MapEntry &in1,
                           const MapEntry &in2) const
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(op));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(imm)));
    mix(in1.preg);
    mix(static_cast<std::uint64_t>(static_cast<std::uint16_t>(in1.disp)));
    mix(in2.preg);
    mix(static_cast<std::uint64_t>(static_cast<std::uint16_t>(in2.disp)));
    return static_cast<unsigned>(h % numSets_);
}

ItSlot
IntegrationTable::lookup(Opcode op, std::int32_t imm, const MapEntry &in1,
                         const MapEntry &in2)
{
    ++accesses_;
    const unsigned set = setIndex(op, imm, in1, in2);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const ItSlot slot = set * params_.assoc + w;
        ItEntry &e = slots_[slot];
        if (e.valid && e.op == op && e.imm == imm && e.in1 == in1 &&
            e.in2 == in2) {
            e.lruStamp = ++lruClock_;
            lruUnlink(slot);
            lruAppend(slot);
            ++hits_;
            return slot;
        }
    }
    return InvalidItSlot;
}

const ItEntry &
IntegrationTable::entry(ItSlot slot) const
{
    const ItEntry &e = slots_.at(slot);
    if (!e.valid)
        panic("IT entry(%u) on invalid slot", slot);
    return e;
}

void
IntegrationTable::trackPregs(ItSlot slot, const ItEntry &tuple)
{
    // Only inputs: the output register cannot be freed while the
    // entry holds a reference to it.
    auto track = [&](PhysReg p) {
        if (p == InvalidPhysReg)
            return;
        if (p >= pregSlots_.size())
            pregSlots_.resize(p + std::size_t{1});
        pregSlots_[p].push_back(slot);
    };
    track(tuple.in1.preg);
    track(tuple.in2.preg);
}

void
IntegrationTable::release(ItSlot slot)
{
    ItEntry &e = slots_[slot];
    if (!e.valid)
        return;
    e.valid = false;
    lruUnlink(slot);
    ++invalidations_;
    if (prf_ && e.out.preg != InvalidPhysReg) {
        prf_->decRef(e.out.preg);
        --pins_[e.out.preg];
    }
}

ItSlot
IntegrationTable::insert(const ItEntry &tuple)
{
    ++accesses_;
    ++insertions_;
    const unsigned set = setIndex(tuple.op, tuple.imm, tuple.in1,
                                  tuple.in2);
    // Replace an entry with an identical signature if one exists (the
    // lookup that detects it shares the insertion port); otherwise
    // evict LRU. Without signature replacement, a stale duplicate
    // could shadow the fresh tuple and cause needless misintegrations.
    ItSlot victim = InvalidItSlot;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const ItSlot slot = set * params_.assoc + w;
        const ItEntry &e = slots_[slot];
        if (e.valid && e.op == tuple.op && e.imm == tuple.imm &&
            e.in1 == tuple.in1 && e.in2 == tuple.in2) {
            victim = slot;
            break;
        }
    }
    if (victim == InvalidItSlot) {
        victim = set * params_.assoc;
        for (unsigned w = 0; w < params_.assoc; ++w) {
            const ItSlot slot = set * params_.assoc + w;
            const ItEntry &e = slots_[slot];
            if (!e.valid) {
                victim = slot;
                break;
            }
            if (e.lruStamp < slots_[victim].lruStamp)
                victim = slot;
        }
    }
    release(victim);  // drop any evicted entry's reference
    if (prf_ && tuple.out.preg != InvalidPhysReg) {
        prf_->incRef(tuple.out.preg);
        ++pins_[tuple.out.preg];
    }
    slots_[victim] = tuple;
    slots_[victim].valid = true;
    slots_[victim].lruStamp = ++lruClock_;
    lruAppend(victim);
    trackPregs(victim, slots_[victim]);
    return victim;
}

void
IntegrationTable::lruUnlink(ItSlot slot)
{
    LruLink &l = lru_[slot];
    (l.prev != InvalidItSlot ? lru_[l.prev].next : lruHead_) = l.next;
    (l.next != InvalidItSlot ? lru_[l.next].prev : lruTail_) = l.prev;
    l = LruLink{};
}

void
IntegrationTable::lruAppend(ItSlot slot)
{
    lru_[slot] = LruLink{lruTail_, InvalidItSlot};
    (lruTail_ != InvalidItSlot ? lru_[lruTail_].next : lruHead_) = slot;
    lruTail_ = slot;
}

void
IntegrationTable::invalidateSlot(ItSlot slot)
{
    if (slot < slots_.size())
        release(slot);
}

void
IntegrationTable::invalidatePreg(PhysReg preg)
{
    if (preg >= pregSlots_.size())
        return;
    // release() can cascade (freeing an output register re-enters here
    // for that register's own input uses), and a re-entry may clear
    // this very list; nothing appends during a cascade. So walk by
    // index, then clear in place: the list keeps its capacity and
    // steady-state renaming allocates nothing here.
    std::vector<ItSlot> &list = pregSlots_[preg];
    for (std::size_t i = 0; i < list.size(); ++i) {
        const ItEntry &e = slots_[list[i]];
        if (e.valid && (e.in1.preg == preg || e.in2.preg == preg))
            release(list[i]);
    }
    list.clear();
}

bool
IntegrationTable::reclaimLru()
{
    if (!prf_)
        return false;
    // A register is reclaimable when the table holds ALL of its
    // references (it is neither architecturally mapped nor in flight).
    // One register can be pinned by several tuples (e.g. a forward and
    // a reverse entry), so compare against the per-register pin count,
    // not against 1 -- and release every pinning entry so the register
    // actually returns to the free pool. The victim is the oldest
    // reclaimable entry: the first one on the recency list.
    ItSlot victim = InvalidItSlot;
    for (ItSlot slot = lruHead_; slot != InvalidItSlot;
         slot = lru_[slot].next) {
        const PhysReg out = slots_[slot].out.preg;
        if (out != InvalidPhysReg && prf_->refCount(out) == pins_[out]) {
            victim = slot;
            break;
        }
    }
    if (victim == InvalidItSlot)
        return false;
    const PhysReg target = slots_[victim].out.preg;
    if (pins_[target] == 1) {
        release(victim);  // the only pinning entry
        return true;
    }
    for (ItSlot slot = 0; slot < slots_.size() && pins_[target] > 0;
         ++slot) {
        const ItEntry &e = slots_[slot];
        if (e.valid && e.out.preg == target)
            release(slot);
    }
    return true;
}

void
IntegrationTable::reset()
{
    for (ItSlot slot = 0; slot < slots_.size(); ++slot)
        release(slot);
    for (auto &list : pregSlots_)
        list.clear();
}

} // namespace reno
