#include "sample/warmup.hpp"

#include "common/digest.hpp"
#include "common/log.hpp"

namespace reno::sample
{

namespace
{

void
digestCacheParams(Fnv64 &h, const CacheParams &p)
{
    h.update(std::uint64_t{p.sizeBytes});
    h.update(std::uint64_t{p.assoc});
    h.update(std::uint64_t{p.blockBytes});
    h.update(std::uint64_t{p.latency});
    h.update(std::uint64_t{p.numMshrs});
    h.update(std::uint64_t{static_cast<unsigned>(p.prefetch.kind)});
    h.update(std::uint64_t{p.prefetch.degree});
    h.update(std::uint64_t{p.prefetch.tableEntries});
    h.update(std::uint64_t{p.prefetch.regionBytes});
    h.update(p.writebackTraffic);
}

} // namespace

std::uint64_t
warmConfigDigest(const MemHierarchy::Params &mem_params,
                 const BranchPredParams &bp_params,
                 unsigned num_cores)
{
    Fnv64 h;
    // v6: every core count shares one warm-half layout (the MESI
    // directory, the shared stack and per-core L1/bpred slices), so
    // the tag bumps with the checkpoint format and v5 files miss.
    h.update("reno-warmcfg-v6");
    h.update(std::uint64_t{num_cores});
    digestCacheParams(h, mem_params.icache);
    digestCacheParams(h, mem_params.dcache);
    digestCacheParams(h, mem_params.l2);
    h.update(std::uint64_t{mem_params.extraLevels.size()});
    for (const CacheParams &level : mem_params.extraLevels)
        digestCacheParams(h, level);
    h.update(mem_params.modelWritebacks);
    h.update(std::uint64_t{mem_params.memory.accessLatency});
    h.update(std::uint64_t{mem_params.memory.busBytes});
    h.update(std::uint64_t{mem_params.memory.busClockDivider});
    const DirPredParams &dir = bp_params.dir;
    h.update(std::uint64_t{static_cast<unsigned>(dir.kind)});
    h.update(std::uint64_t{dir.bimodalEntries});
    h.update(std::uint64_t{dir.gshareEntries});
    h.update(std::uint64_t{dir.chooserEntries});
    h.update(std::uint64_t{dir.historyBits});
    h.update(std::uint64_t{dir.tageBaseEntries});
    h.update(std::uint64_t{dir.tageTables});
    h.update(std::uint64_t{dir.tageEntries});
    h.update(std::uint64_t{dir.tageTagBits});
    h.update(std::uint64_t{dir.tageMinHist});
    h.update(std::uint64_t{dir.tageMaxHist});
    h.update(std::uint64_t{dir.perceptronEntries});
    h.update(std::uint64_t{dir.perceptronHistBits});
    h.update(std::uint64_t{bp_params.btb.entries});
    h.update(std::uint64_t{bp_params.btb.assoc});
    h.update(std::uint64_t{bp_params.ras.entries});
    h.update(bp_params.indirect.enabled);
    h.update(std::uint64_t{bp_params.indirect.entries});
    h.update(std::uint64_t{bp_params.indirect.historyBits});
    return h.value();
}

std::uint64_t
warmConfigDigest(const CoreParams &params)
{
    return warmConfigDigest(params.mem, params.bpred,
                            params.sys.numCores);
}

WarmState::WarmState(const MemHierarchy::Params &mem_params,
                     const BranchPredParams &bp_params,
                     unsigned num_cores)
    : memParams_(mem_params), bpParams_(bp_params),
      numCores_(num_cores)
{
    build();
}

WarmState::WarmState(const WarmState &other)
    : memParams_(other.memParams_), bpParams_(other.bpParams_),
      numCores_(other.numCores_)
{
    build();
    for (std::size_t i = 0; i < shared_.size(); ++i)
        shared_[i]->copyStateFrom(*other.shared_[i]);
    if (!bus_->importState(other.bus_->exportState()))
        fatal("WarmState clone: bus state does not round-trip");
    for (unsigned i = 0; i < numCores_; ++i) {
        coreMem_[i]->copyStateFrom(*other.coreMem_[i]);
        coreBps_[i] = other.coreBps_[i];
    }
    lastFetchBlock_ = other.lastFetchBlock_;
}

void
WarmState::build()
{
    if (numCores_ < 1)
        fatal("WarmState: core count must be positive");

    // The shared stack and memory, assembled exactly as the System
    // assembles its own (sys/system.cpp): back to front, write-back
    // modeling propagated, the memory bus moving one block of the
    // deepest level per transfer.
    std::vector<CacheParams> stack;
    stack.push_back(memParams_.l2);
    for (const CacheParams &extra : memParams_.extraLevels)
        stack.push_back(extra);
    if (memParams_.modelWritebacks) {
        for (CacheParams &level : stack)
            level.writebackTraffic = true;
    }
    memory_ = std::make_unique<MainMemory>(memParams_.memory,
                                           stack.back().blockBytes);
    shared_.resize(stack.size());
    for (std::size_t i = stack.size(); i-- > 0;) {
        MemLevel *next =
            i + 1 < stack.size()
                ? static_cast<MemLevel *>(shared_[i + 1].get())
                : static_cast<MemLevel *>(memory_.get());
        shared_[i] = std::make_unique<Cache>(stack[i], next);
    }
    for (const auto &level : shared_)
        sharedView_.push_back(level.get());

    // Warming-mode bus: default latencies -- the penalties are
    // discarded, only the directory/tag transitions matter.
    SysParams sys;
    sys.numCores = numCores_;
    bus_ = std::make_unique<CoherenceBus>(
        sys, memParams_.dcache.blockBytes, numCores_);

    coreMem_.reserve(numCores_);
    coreBps_.reserve(numCores_);
    for (unsigned i = 0; i < numCores_; ++i) {
        MemHierarchy::Attach attach;
        attach.backend = shared_[0].get();
        attach.shared = sharedView_;
        attach.bus = bus_.get();
        attach.coreId = i;
        coreMem_.push_back(
            std::make_unique<MemHierarchy>(memParams_, &attach));
        coreBps_.emplace_back(bpParams_);
    }
    lastFetchBlock_.assign(numCores_, ~Addr{0});
}

void
warmStep(const std::vector<Emulator *> &emus, WarmState &warm,
         std::uint64_t aggregate_bound)
{
    if (emus.size() != warm.numCores())
        fatal("warmStep: %u-core warm state given %zu emulators",
              warm.numCores(), emus.size());

    const Addr iblock_bytes = warm.memParams().icache.blockBytes;
    std::uint64_t total = 0;
    for (const Emulator *emu : emus)
        total += emu->instCount();

    while (total < aggregate_bound) {
        // The live emulator with the fewest executed instructions,
        // ties to the lowest core id: the stateless round-robin rule
        // (see the header comment).
        Emulator *next = nullptr;
        unsigned next_core = 0;
        for (unsigned i = 0; i < emus.size(); ++i) {
            if (emus[i]->done())
                continue;
            if (!next || emus[i]->instCount() < next->instCount()) {
                next = emus[i];
                next_core = i;
            }
        }
        if (!next)
            break;  // every program exited before the bound

        const Addr pc = next->state().pc;
        const ExecRecord rec = next->step();
        ++total;
        const Addr block = pc / iblock_bytes;
        if (block != warm.lastFetchBlock(next_core)) {
            warm.coreMem(next_core).fetchAccess(pc, 0);
            warm.lastFetchBlock(next_core) = block;
        }
        const InstClass cls = rec.inst.info().cls;
        if (cls == InstClass::Load) {
            warm.coreMem(next_core).dataAccess(rec.effAddr, 0, false);
        } else if (cls == InstClass::Store) {
            warm.coreMem(next_core).dataAccess(rec.effAddr, 0, true);
        } else if (isControl(rec.inst.op)) {
            warm.coreBp(next_core).predict(pc, rec.inst);
            warm.coreBp(next_core).update(pc, rec.inst, rec.taken,
                                          rec.npc);
        }
    }
}

void
warmStep(Emulator &emu, WarmState &warm, std::uint64_t inst_bound)
{
    warmStep(std::vector<Emulator *>{&emu}, warm, inst_bound);
}

} // namespace reno::sample
