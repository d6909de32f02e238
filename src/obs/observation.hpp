/**
 * @file
 * Per-job observation: what a job asks its cores to observe, and the
 * one record it returns. The request travels as a plain value
 * (sweep::CampaignOptions::observe, runWorkload, runIntervalDetailed),
 * the harness builds and attaches each core's observers from it
 * (JobObservers, harness/experiment.hpp), and the record travels back
 * in RunOutput / sweep::JobResult for the tools to render after the
 * campaign, in submission order.
 *
 * Neither is part of a job's content digest or of the result cache:
 * observers only read, so SimResult is identical whatever is
 * requested, and a cache hit comes back with an empty record.
 */
#pragma once

#include <vector>

#include "obs/cpireport.hpp"
#include "trace/pipetrace.hpp"

namespace reno::obs
{

/** What to observe on every core of a job (everything off by default). */
struct ObservationRequest {
    bool cpiStack = false;  //!< per-cycle CPI-stack accounting
    unsigned hotTopN = 0;   //!< hotspot profile, top N (0 = off)
    bool pipetrace = false; //!< bounded retired-instruction trace
};

/** Everything a job's observers saw. */
struct Observation {
    /** CPI stacks and hotspots; valid when either was requested. */
    CpiReport cpi;
    /** Per-core pipeline traces in core order (empty unless
     *  requested). */
    std::vector<std::vector<PipeRecord>> pipetrace;
};

} // namespace reno::obs
