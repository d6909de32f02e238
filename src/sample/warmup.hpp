/**
 * @file
 * Functional warming for sampled simulation (the SMARTS insight): the
 * caches and the branch predictor accumulate state over the *entire*
 * run -- an L2 working set or a branch history cannot be reconstructed
 * by a short detailed warmup window. So the fast-forward between
 * intervals feeds every fetch, branch and data access into
 * timing-model instances at functional speed, and the warmed tables
 * are injected into the detailed core before each measured window.
 *
 * Warming is a pure function of the instruction stream: chopping it at
 * a checkpoint and resuming from the snapshot yields bit-identical
 * tables (tag fills are eager and cycle-independent; transient timing
 * state -- MSHRs, the memory bus -- is settled before measurement).
 * Warm state depends only on the memory-hierarchy and predictor
 * parameters and the core count, never on the RENO configuration, so
 * one warming pass serves every configuration of a sweep.
 *
 * Warming consumes the emulator one step() at a time (it must see
 * every access); the decoded-superblock engine still accelerates it
 * through the per-step block cursor, and accelerates the access-blind
 * fast-forward to the first window by the full superblock margin.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bpred/predictor.hpp"
#include "coherence/mesi.hpp"
#include "emu/emulator.hpp"
#include "mem/hierarchy.hpp"
#include "uarch/params.hpp"

namespace reno::sample
{

/** Digest of the parameters warm state depends on (mem + bpred +
 *  core count: the core count shapes the shared-level contents and
 *  the per-core slices, so warm states of different core counts
 *  never alias). */
std::uint64_t warmConfigDigest(const MemHierarchy::Params &mem_params,
                               const BranchPredParams &bp_params,
                               unsigned num_cores = 1);
std::uint64_t warmConfigDigest(const CoreParams &params);

/**
 * Functionally warmed state of an N-core System (N = 1 included):
 * per-core private L1s and branch predictors over one shared L2/L3
 * stack, with a warming-mode CoherenceBus keeping the MESI directory
 * and the L1 tag arrays in lockstep. The shared stack is assembled
 * with exactly the System's logic, and the per-core hierarchies
 * attach to it the way the System's cores do -- so injecting this
 * state into a System of the same geometry is a level-by-level copy.
 *
 * Warming is tag-pure: the bus's latency penalties are computed and
 * discarded (tag fills are eager and cycle-independent), so the warm
 * state depends only on the mem/bpred geometry and the core count,
 * never on the snoop latencies or the RENO configuration.
 */
class WarmState
{
  public:
    WarmState(const MemHierarchy::Params &mem_params,
              const BranchPredParams &bp_params,
              unsigned num_cores = 1);

    /** Deep clone (the hierarchy graph is not copyable). */
    WarmState(const WarmState &other);
    WarmState &operator=(const WarmState &) = delete;

    unsigned numCores() const { return numCores_; }

    MemHierarchy &coreMem(unsigned i) { return *coreMem_[i]; }
    const MemHierarchy &coreMem(unsigned i) const
    {
        return *coreMem_[i];
    }
    BranchPredictor &coreBp(unsigned i) { return coreBps_[i]; }
    const BranchPredictor &coreBp(unsigned i) const
    {
        return coreBps_[i];
    }
    /** Last I$ block fed per core (one access per block, matching the
     *  core's fetch; part of the state so warming composes across
     *  checkpoint boundaries). */
    Addr &lastFetchBlock(unsigned i) { return lastFetchBlock_[i]; }
    Addr lastFetchBlock(unsigned i) const
    {
        return lastFetchBlock_[i];
    }

    std::size_t numSharedLevels() const { return shared_.size(); }
    Cache &sharedLevel(std::size_t i) { return *shared_[i]; }
    const Cache &sharedLevel(std::size_t i) const
    {
        return *shared_[i];
    }

    CoherenceBus &bus() { return *bus_; }
    const CoherenceBus &bus() const { return *bus_; }

    const MemHierarchy::Params &memParams() const { return memParams_; }
    const BranchPredParams &bpParams() const { return bpParams_; }

  private:
    void build();

    MemHierarchy::Params memParams_;
    BranchPredParams bpParams_;
    unsigned numCores_;

    std::unique_ptr<MainMemory> memory_;
    std::vector<std::unique_ptr<Cache>> shared_;  //!< L2 first
    std::vector<const Cache *> sharedView_;
    std::unique_ptr<CoherenceBus> bus_;
    std::vector<std::unique_ptr<MemHierarchy>> coreMem_;
    std::vector<BranchPredictor> coreBps_;
    std::vector<Addr> lastFetchBlock_;
};

/**
 * Functional warming: step the emulators (one per core of @p warm,
 * core order) until their aggregate executed-instruction count
 * reaches @p aggregate_bound (or every program exits), feeding each
 * core's fetch/branch/data streams into its slice of @p warm through
 * the shared stack and the warming bus. All accesses are fed at
 * cycle 0: tag fills are eager, so the warmed tables are independent
 * of timing.
 *
 * The interleave rule is stateless -- always step the live emulator
 * with the fewest executed instructions, ties to the lowest core id
 * -- which produces the canonical one-instruction round-robin in
 * core order and, crucially, resumes bit-exactly from a chop at ANY
 * aggregate bound: warming composes across checkpoint boundaries.
 */
void warmStep(const std::vector<Emulator *> &emus, WarmState &warm,
              std::uint64_t aggregate_bound);

/** One-core warmStep: @p emu is core 0 of a one-core @p warm. */
void warmStep(Emulator &emu, WarmState &warm,
              std::uint64_t inst_bound);

} // namespace reno::sample
