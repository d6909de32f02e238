/**
 * @file
 * The timing pipeline's own counters: plain monotonic std::uint64_t
 * fields the stages increment on the hot path.
 *
 * They are named in exactly one place, the SimResult field registry
 * (uarch/sim_result.hpp): Core::result() copies them, together with
 * the component statistics that stay inside their components
 * (integration table, branch predictor, caches), into a SimResult,
 * and every report, cache entry, sampling-window delta and trace
 * counter sample reads them from there.
 */
#pragma once

#include <cstdint>

#include "reno/renamer.hpp"

namespace reno
{

struct PipelineStats {
    std::uint64_t retired = 0;
    std::uint64_t retiredLoads = 0;
    std::uint64_t retiredStores = 0;
    std::uint64_t retiredBranches = 0;

    std::uint64_t violationSquashes = 0;
    std::uint64_t misintegrationFlushes = 0;

    std::uint64_t stallRob = 0;
    std::uint64_t stallIq = 0;
    std::uint64_t stallPregs = 0;
    std::uint64_t stallLsq = 0;

    /** Retired instructions collapsed, by ElimKind index. */
    std::uint64_t retiredElim[NumElimKinds] = {};
};

} // namespace reno
