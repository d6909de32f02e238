#include "sweep/result_cache.hpp"

#include "common/digest.hpp"
#include "common/log.hpp"
#include "common/record.hpp"

namespace reno::sweep
{

namespace
{

// The serialized SimResult fields and their file order come from the
// canonical registry in uarch/sim_result.hpp, whose order is frozen
// to this file format. v2 appended the per-memory-level counter
// block, v3 the branch-prediction breakdown, v4 the multi-core
// coherence + per-core block; older entries fail the tag check and
// are recomputed.
constexpr const char *FormatTag = "reno-result v4";

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::pathFor(std::uint64_t digest) const
{
    return dir_ + "/" + digestHex(digest) + ".result";
}

bool
ResultCache::lookup(std::uint64_t digest, JobResult *out)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = mem_.find(digest);
        if (it != mem_.end()) {
            *out = it->second;
            ++memoryHits_;
            return true;
        }
    }
    if (!dir_.empty() && loadFromDisk(digest, out)) {
        std::lock_guard<std::mutex> lock(mu_);
        mem_.emplace(digest, *out);
        ++diskHits_;
        return true;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    return false;
}

void
ResultCache::store(std::uint64_t digest, const JobResult &result)
{
    // The observation record is never cached (the disk format
    // predates it); dropping it from the memory tier too keeps the
    // invariant uniform: a cache hit never carries observations.
    JobResult cached = result;
    cached.observed = obs::Observation{};
    {
        std::lock_guard<std::mutex> lock(mu_);
        mem_[digest] = std::move(cached);
        ++stores_;
    }
    if (!dir_.empty())
        storeToDisk(digest, result);
}

double
ResultCache::hitRatio() const
{
    const std::uint64_t hits = memoryHits_ + diskHits_;
    const std::uint64_t lookups = hits + misses_;
    return lookups ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return mem_.size();
}

std::string
ResultCache::encode(const JobResult &result)
{
    RecordWriter out;
    out.put(FormatTag);
    for (const SimStatField &f : simResultFields())
        out.put(f.name, statValue(result.sim, f));
    out.put("hasCpa", result.hasCpa);
    if (result.hasCpa) {
        for (unsigned b = 0; b < NumCpBuckets; ++b)
            out.put(strprintf("cpa%u", b), result.cpaWeights[b]);
    }
    return out.take();
}

bool
ResultCache::decode(const std::string &text, JobResult *out,
                    std::string *why)
{
    RecordReader in(text);
    JobResult r;
    in.get(FormatTag);
    for (const SimStatField &f : simResultFields())
        in.get(f.name, statRef(r.sim, f));
    in.get("hasCpa", r.hasCpa);
    if (r.hasCpa) {
        for (unsigned b = 0; b < NumCpBuckets; ++b)
            in.get(strprintf("cpa%u", b), r.cpaWeights[b]);
    }
    if (!in.finish()) {
        if (why)
            *why = in.error();
        return false;
    }
    *out = r;
    return true;
}

bool
ResultCache::loadFromDisk(std::uint64_t digest, JobResult *out)
{
    std::string text;
    if (!readFile(pathFor(digest), &text))
        return false;
    std::string why;
    if (!decode(text, out, &why)) {
        warn("result cache: ignoring malformed entry %s (%s)",
             pathFor(digest).c_str(), why.c_str());
        return false;
    }
    return true;
}

void
ResultCache::storeToDisk(std::uint64_t digest, const JobResult &result)
{
    std::string why;
    if (!writeFileAtomic(pathFor(digest), encode(result), &why))
        warn("result cache: %s", why.c_str());
}

} // namespace reno::sweep
