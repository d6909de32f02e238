/**
 * @file
 * StatSet: a registry of named monotonic 64-bit counters with stable
 * registration order and snapshot/delta algebra.
 *
 * Modules register each counter once by name and keep the returned
 * reference on their hot path -- an increment is a plain add, no map
 * lookup. Because every counter is monotonic, "freezing" statistics
 * over a window is exact: the window's contribution is the delta of
 * two snapshots, which is how the sampled-simulation subsystem
 * measures its warmed intervals. Counters are raw std::uint64_t
 * references, stable for the set's lifetime.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace reno
{

/** Ordered values of every counter of a StatSet at one instant.
 *  Ordering (and therefore delta compatibility) follows the set's
 *  registration order. */
struct StatSnapshot {
    std::vector<std::uint64_t> values;

    /** Field-wise *this - pre (monotonic counters: post - pre). */
    StatSnapshot delta(const StatSnapshot &pre) const;

    /** Field-wise accumulation. */
    void accumulate(const StatSnapshot &add);

    bool operator==(const StatSnapshot &other) const = default;
};

/** A named registry of monotonic counters. */
class StatSet
{
  public:
    explicit StatSet(std::string name = "stats") : name_(std::move(name))
    {
    }

    // Handed-out references must stay valid; no copies.
    StatSet(const StatSet &) = delete;
    StatSet &operator=(const StatSet &) = delete;

    /**
     * Register (or re-fetch) the counter called @p name. The returned
     * reference is stable for the set's lifetime -- bind it once and
     * increment it directly on the hot path.
     */
    std::uint64_t &add(std::string_view name);

    bool has(std::string_view name) const;

    /** Value of a registered counter (0 if absent). */
    std::uint64_t value(std::string_view name) const;

    std::size_t size() const { return order_.size(); }
    const std::vector<std::string> &names() const { return order_; }
    const std::string &name() const { return name_; }

    /** All counter values, in registration order. */
    StatSnapshot snapshot() const;

    /** All (name, value) pairs, in registration order. */
    std::vector<std::pair<std::string, std::uint64_t>> dump() const;

    /** Zero every counter (new runs on a reused set). */
    void resetAll();

  private:
    std::string name_;
    /** Deque: grows without invalidating handed-out references. */
    std::deque<std::uint64_t> values_;
    std::vector<std::string> order_;
    std::map<std::string, std::size_t, std::less<>> index_;
};

} // namespace reno
