#include "obs/profiler.hpp"

#include <algorithm>

#include "pipeline/machine_state.hpp"

namespace reno::obs
{

namespace
{

/** Power of two >= @p n (table size; probes use a bitmask). */
std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/** splitmix64 finalizer: pcs are aligned, so mix the bits. */
std::uint64_t
hashPc(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

constexpr std::size_t MaxProbe = 16;

} // namespace

HotspotProfile::HotspotProfile(std::size_t slots)
    : slots_(roundUpPow2(slots < 64 ? 64 : slots)),
      mask_(slots_.size() - 1)
{
}

HotspotProfile::Slot *
HotspotProfile::find(Addr pc, std::uint64_t events)
{
    std::size_t i = hashPc(pc) & mask_;
    for (std::size_t probe = 0; probe < MaxProbe; ++probe) {
        Slot &s = slots_[(i + probe) & mask_];
        if (s.used && s.pc == pc)
            return &s;
        if (!s.used) {
            s.used = true;
            s.pc = pc;
            ++occupied_;
            return &s;
        }
    }
    dropped_ += events;
    return nullptr;
}

void
HotspotProfile::onRetire(const DynInst &inst)
{
    retire(inst.rec.pc);
}

void
HotspotProfile::onCycles(const MachineState &state, unsigned committed,
                         bool, std::uint64_t n)
{
    if (committed == 0 && !state.rob.empty())
        stall(state.rob.front()->rec.pc, n);
}

std::vector<HotspotProfile::Entry>
HotspotProfile::top(std::size_t n, bool by_stall) const
{
    std::vector<Entry> all;
    all.reserve(occupied_);
    for (const Slot &s : slots_) {
        if (!s.used)
            continue;
        if (by_stall ? s.stallCycles == 0 : s.retired == 0)
            continue;
        all.push_back(Entry{s.pc, s.retired, s.stallCycles});
    }
    auto key = [by_stall](const Entry &e) {
        return by_stall ? e.stallCycles : e.retired;
    };
    std::sort(all.begin(), all.end(),
              [&](const Entry &a, const Entry &b) {
                  if (key(a) != key(b))
                      return key(a) > key(b);
                  return a.pc < b.pc;
              });
    if (all.size() > n)
        all.resize(n);
    return all;
}

std::vector<HotspotProfile::Entry>
HotspotProfile::topByRetired(std::size_t n) const
{
    return top(n, false);
}

std::vector<HotspotProfile::Entry>
HotspotProfile::topByStall(std::size_t n) const
{
    return top(n, true);
}

} // namespace reno::obs
