#include "sample/warmup.hpp"

#include <algorithm>
#include <bit>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "emu/exec_decoded.hpp"

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
    for (std::size_t i = 0; i < shared_.levels.size(); ++i)
        shared_.levels[i]->copyStateFrom(*other.shared_.levels[i]);
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

    // The shared stack the System builds (MemHierarchy::buildShared).
    shared_ = MemHierarchy::buildShared(memParams_);

    // Warming-mode bus: default latencies -- the penalties are
    // discarded, only the directory/tag transitions matter.
    SysParams sys;
    sys.numCores = numCores_;
    bus_ = std::make_unique<CoherenceBus>(
        sys, memParams_.dcache.blockBytes, numCores_);

    coreMem_.reserve(numCores_);
    coreBps_.reserve(numCores_);
    for (unsigned i = 0; i < numCores_; ++i) {
        const MemHierarchy::Attach attach{shared_.levels[0].get(),
                                          shared_.view, bus_.get(), i};
        coreMem_.push_back(
            std::make_unique<MemHierarchy>(memParams_, &attach));
        coreBps_.emplace_back(bpParams_);
    }
    lastFetchBlock_.assign(numCores_, ~Addr{0});
}

namespace
{

/**
 * Emulator event sink (emu/emulator.hpp) feeding one core's executed
 * instructions into its slice of a WarmState, through the tag-only
 * warm access path.
 */
class WarmSink
{
  public:
    WarmSink(WarmState &warm, unsigned core)
        : mem_(warm.coreMem(core)), bp_(warm.coreBp(core)),
          lastBlock_(warm.lastFetchBlock(core)),
          blockShift_(static_cast<unsigned>(std::countr_zero(
              warm.memParams().icache.blockBytes)))
    {
    }

    /** One I$ access per fetched block, matching the core's fetch. */
    void
    fetch(Addr pc)
    {
        const Addr block = pc >> blockShift_;
        if (block != lastBlock_) {
            mem_.warmFetch(pc);
            lastBlock_ = block;
        }
    }

    void data(Addr addr, bool is_store) { mem_.warmData(addr, is_store); }

    void
    control(Addr pc, const Instruction &inst, bool taken, Addr npc)
    {
        bp_.predict(pc, inst);
        bp_.update(pc, inst, taken, npc);
    }

  private:
    MemHierarchy &mem_;
    BranchPredictor &bp_;
    Addr &lastBlock_;
    unsigned blockShift_;  //!< log2 of the I$ block (a power of two)
};

} // namespace

void
warmStep(const std::vector<Emulator *> &emus, WarmState &warm,
         std::uint64_t aggregate_bound)
{
    if (emus.size() != warm.numCores())
        fatal("warmStep: %u-core warm state given %zu emulators",
              warm.numCores(), emus.size());

    std::uint64_t total = 0;
    for (const Emulator *emu : emus)
        total += emu->instCount();

    const std::size_t n = emus.size();
    while (total < aggregate_bound) {
        // The live emulator with the fewest executed instructions,
        // ties to the lowest core id: the stateless round-robin rule
        // (see the header comment).
        std::size_t core = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (!emus[i]->done() &&
                (core == n ||
                 emus[i]->instCount() < emus[core]->instCount()))
                core = i;
        }
        if (core == n)
            break;  // every program exited before the bound

        // Run it as far as the rule keeps choosing it: up to the count
        // of a live lower-id core (a tie goes to that core), one past
        // the count of a live higher-id core, and no further than the
        // aggregate bound. Alone, a core runs to the bound in one
        // turn; in lockstep, each turn is one instruction.
        const std::uint64_t own = emus[core]->instCount();
        std::uint64_t stop = own + (aggregate_bound - total);
        for (std::size_t i = 0; i < n; ++i) {
            if (i == core || emus[i]->done())
                continue;
            const std::uint64_t count = emus[i]->instCount();
            stop = std::min(stop, i < core ? count : count + 1);
        }
        WarmSink sink(warm, static_cast<unsigned>(core));
        emus[core]->runUntil(stop, sink);
        total += emus[core]->instCount() - own;
    }
}

void
warmStep(Emulator &emu, WarmState &warm, std::uint64_t inst_bound)
{
    warmStep(std::vector<Emulator *>{&emu}, warm, inst_bound);
}

} // namespace reno::sample
