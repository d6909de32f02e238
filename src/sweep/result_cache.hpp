/**
 * @file
 * Content-addressed simulation result cache. Results are keyed by the
 * job content digest (kernel source + seed + serialized machine
 * configuration + CPA request), not by workload/config *names*, so a
 * renamed configuration with identical parameters still hits and two
 * same-named configurations with different parameters never collide.
 *
 * The in-memory map is always active; when constructed with a
 * directory, every stored result is also persisted as one small text
 * file per digest, and lookups fall back to disk -- a warm directory
 * lets a repeated figure campaign skip simulation entirely. Files use
 * the cache directory's strict record grammar and atomic
 * write-then-rename store (common/record.hpp), shared with
 * sample::CheckpointStore; a malformed file is ignored with a warning
 * naming the reason, and the result is recomputed.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sweep/job.hpp"

namespace reno::sweep
{

/** Thread-safe content-addressed cache of JobResults. */
class ResultCache
{
  public:
    /** @param dir  persistence directory; empty = in-memory only.
     *  Created on first store if missing. */
    explicit ResultCache(std::string dir = "");

    /**
     * Look up @p digest: memory first, then the persistence directory.
     * A disk hit is promoted into memory. Returns true and fills
     * @p out on a hit.
     */
    bool lookup(std::uint64_t digest, JobResult *out);

    /** Insert a result (memory, plus disk when persistent). */
    void store(std::uint64_t digest, const JobResult &result);

    // --- statistics ---------------------------------------------------
    std::uint64_t memoryHits() const { return memoryHits_; }
    std::uint64_t diskHits() const { return diskHits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t stores() const { return stores_; }
    /** lookup() hits of either kind over total lookups; 0 when idle. */
    double hitRatio() const;
    std::size_t size() const;
    const std::string &dir() const { return dir_; }

    /** Serialize a result to the persistence format (common/record.hpp
     *  records: the format tag, every registry field, hasCpa, then
     *  the CPA weights when present). */
    static std::string encode(const JobResult &result);

    /** Parse the persistence format strictly: anything encode() could
     *  not have produced returns false (and, when @p why is non-null,
     *  names the offending line and reason). */
    static bool decode(const std::string &text, JobResult *out,
                       std::string *why = nullptr);

  private:
    std::string pathFor(std::uint64_t digest) const;
    bool loadFromDisk(std::uint64_t digest, JobResult *out);
    void storeToDisk(std::uint64_t digest, const JobResult &result);

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, JobResult> mem_;
    std::string dir_;
    std::uint64_t memoryHits_ = 0;
    std::uint64_t diskHits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t stores_ = 0;
};

} // namespace reno::sweep
