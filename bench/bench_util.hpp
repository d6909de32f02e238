/**
 * @file
 * Shared helpers for the per-figure benchmark binaries. Each binary is
 * a thin campaign description: it declares its (workload x config)
 * jobs, hands them to the sweep engine (worker thread pool +
 * content-addressed result cache), and formats the submission-ordered
 * results into the paper's tables.
 *
 * Every binary takes its workloads from benchmarkSuites() and parses
 * its command line with sweep::parseCampaignArgs(), which accepts the
 * engine's standard flags and nothing else (an unknown or misspelled
 * flag exits 1 naming it):
 *   --jobs N        worker threads (default: all cores)
 *   --cache-dir D   persist results; a warm cache skips simulation
 *   --sweep-stats   print an execution summary to stderr
 */
#pragma once

#include <cstdio>
#include <string>

#include "common/log.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "sweep/campaign.hpp"

namespace reno::bench
{

/** Print a figure banner. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("==================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("(reproduces %s)\n", paper_ref.c_str());
    std::printf("==================================================\n");
}

} // namespace reno::bench
