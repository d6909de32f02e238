/**
 * @file
 * Critical-path analyzer in the style of Fields et al., as used by the
 * paper (section 4.3): the simulator records timing and dependence
 * data for all retired instructions; this analyzer builds the
 * dependence graph in 1M-instruction chunks, walks the last-arriving
 * edges backwards from the final commit, and accumulates each critical
 * edge's latency into one of five buckets:
 *
 *   fetch      - fetch bandwidth, I$ misses, branch mispredictions and
 *                finite-window stalls (all in-order front-end edges)
 *   alu exec   - integer dataflow latency
 *   load exec  - D$ / L2 dataflow latency (and store forwarding)
 *   load mem   - main-memory dataflow latency
 *   commit     - commit bandwidth and retirement-port contention
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "uarch/dyninst.hpp"
#include "uarch/core_observer.hpp"

namespace reno
{

/** Critical-path buckets (paper Figure 9). */
enum class CpBucket : unsigned {
    Fetch,
    AluExec,
    LoadExec,
    LoadMem,
    Commit,
    NumBuckets,
};

constexpr unsigned NumCpBuckets =
    static_cast<unsigned>(CpBucket::NumBuckets);

/** Human-readable bucket name. */
const char *cpBucketName(CpBucket bucket);

/** Collects retired-instruction records and computes the breakdown. */
class CriticalPathAnalyzer : public CoreObserver
{
  public:
    /**
     * @param chunk_size  instructions per analysis chunk (the paper
     *                    uses 1M)
     * @param window      reorder-buffer size (ROB window edges)
     * @param iq_window   issue-queue size (IQ window edges)
     */
    explicit CriticalPathAnalyzer(size_t chunk_size = 1'000'000,
                                  unsigned window = 128,
                                  unsigned iq_window = 50);

    void onRetire(const DynInst &inst) override;

    /** Process any remaining partial chunk. */
    void finish();

    /** Total critical-path weight per bucket. */
    const std::array<std::uint64_t, NumCpBuckets> &
    buckets() const
    {
        return buckets_;
    }

    /** Normalized breakdown (fractions summing to ~1). */
    std::array<double, NumCpBuckets> breakdown() const;

    std::uint64_t totalWeight() const;

  private:
    /** Per-instruction node times and dominator info. */
    struct Record {
        InstSeq seq;
        Cycle f, i, e, c;  //!< rename, issue, complete, retire
        InstClass cls;
        MemHitLevel memLevel;
        bool eliminated;
        IssueDom issueDom;
        InstSeq domProducer;
        InstSeq redirectFrom;
        CommitDom commitDom;
    };

    CpBucket execBucket(const Record &rec) const;
    void processChunk();

    size_t chunkSize_;
    unsigned window_;
    unsigned iqWindow_;
    std::vector<Record> chunk_;
    InstSeq firstSeq_ = 0;
    std::array<std::uint64_t, NumCpBuckets> buckets_{};
};

} // namespace reno
