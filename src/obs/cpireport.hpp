/**
 * @file
 * Campaign-facing CPI-stack artifacts: the per-run report a job's
 * observers return (obs/observation.hpp), and the renderers behind
 * `reno-sweep --cpi-json/--cpi-html` and `reno-sample --cpi-json`.
 *
 * The report travels next to SimResult -- never serialized
 * into the result cache (cache-hit jobs come back with valid=false),
 * never rendered into the standard reports -- so every golden stays
 * byte-identical whether accounting is on or off.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/cpistack.hpp"
#include "obs/profiler.hpp"

namespace reno::obs
{

/** Everything CPI accounting learned about one simulation. */
struct CpiReport {
    bool valid = false;  //!< false: not requested (or cache hit)
    CpiStack machine;    //!< sum over cores; total() == sum of cycles
    /** Per-core stacks (one entry on a single core); each sums to
     *  that core's own cycle count. */
    std::vector<CpiStack> perCore;
    std::vector<HotspotProfile::Entry> hotRetired;
    std::vector<HotspotProfile::Entry> hotStall;
    std::uint64_t hotspotDropped = 0;
};

/** One (workload, config) row of a campaign CPI artifact. */
struct CpiRow {
    std::string workload;
    std::string config;
    unsigned cores = 1;
    CpiReport report;
};

/**
 * Deterministic JSON artifact: bucket names, one object per job
 * (stack + per-core stacks + hotspot tables, each stack carrying its
 * own "cycles" total so the sum-to-cycles identity is checkable from
 * the file alone), and the campaign-wide aggregate stack.
 */
std::string renderCpiJson(const std::vector<CpiRow> &rows);

/**
 * Self-contained HTML report (inline CSS, no scripts): a stacked
 * cycle-accounting bar per (workload, config) plus the hotspot table
 * of every profiled job.
 */
std::string renderCpiHtml(const std::vector<CpiRow> &rows);

/** One sampled-estimate row (`reno-sample --cpi-json`). */
struct SampledCpiRow {
    std::string workload;
    std::string config;
    unsigned cores = 1;
    /** Extrapolated whole-program cycles per bucket (same estimator
     *  as the sampled IPC; fractional by nature). */
    std::array<double, NumCpiBuckets> est{};
};

/** JSON artifact for extrapolated sampled stacks. */
std::string renderSampledCpiJson(const std::vector<SampledCpiRow> &rows);

} // namespace reno::obs
