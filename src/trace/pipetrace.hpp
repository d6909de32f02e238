/**
 * @file
 * Pipeline trace collection and rendering.
 *
 * A PipeTracer is a CoreObserver that records, for every retired
 * dynamic instruction, the cycle each pipeline stage handled it plus
 * the RENO rename outcome (which optimization collapsed it, which
 * physical register it shares, the accumulated map-table displacement).
 * The recorded trace can be rendered as a gem5-O3-viewer-style text
 * diagram:
 *
 *   [f..r..i.c....R]  0x0040 addi r2, r1, 8    CF-folded -> [p7:+8]
 *
 * where f=fetch, r=rename, i=issue, c=complete, R=retire, and
 * collapsed instructions show no issue/complete (they skip the
 * execution core entirely).
 *
 * The tracer is bounded: it keeps the first @c maxRecords retired
 * instructions (optionally after skipping a warm-up prefix), so it can
 * be attached to full workload runs without unbounded memory use.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "uarch/dyninst.hpp"
#include "uarch/core_observer.hpp"

namespace reno
{

/** One retired instruction's trace record. */
struct PipeRecord {
    InstSeq seq = 0;
    Addr pc = 0;
    Instruction inst;

    Cycle fetchCycle = 0;
    Cycle renameCycle = 0;
    Cycle issueCycle = InvalidCycle;     //!< InvalidCycle if collapsed
    Cycle completeCycle = InvalidCycle;
    Cycle retireCycle = 0;

    ElimKind elim = ElimKind::None;
    bool mispredicted = false;
    MemHitLevel memLevel = MemHitLevel::None;

    /** Destination mapping after rename ([p:d]); preg is
     *  InvalidPhysReg when the instruction has no destination. */
    PhysReg destPreg = InvalidPhysReg;
    std::int16_t destDisp = 0;

    bool eliminated() const { return elim != ElimKind::None; }
};

/** Collects PipeRecords from a Core. */
class PipeTracer : public CoreObserver
{
  public:
    struct Options {
        std::uint64_t skipFirst = 0;    //!< warm-up records to drop
        std::uint64_t maxRecords = 4096;
    };

    PipeTracer() = default;
    explicit PipeTracer(const Options &opts) : opts_(opts) {}

    void onRetire(const DynInst &inst) override;

    const std::vector<PipeRecord> &records() const { return records_; }
    std::uint64_t retiredSeen() const { return seen_; }
    bool full() const { return records_.size() >= opts_.maxRecords; }

    void clear();

  private:
    Options opts_;
    std::vector<PipeRecord> records_;
    std::uint64_t seen_ = 0;
};

/** Name of an elimination kind ("ME", "CF", "CSE", "RA", or ""). */
std::string_view elimKindName(ElimKind kind);

/**
 * Render one record as a single diagram line. @p origin is subtracted
 * from all cycle numbers (use the first record's fetch cycle so the
 * window starts at column zero); @p width clips the timeline.
 */
std::string renderPipeLine(const PipeRecord &rec, Cycle origin,
                           unsigned width = 64);

/**
 * Render a full trace: a header, one line per record, and a footer
 * summarizing eliminations within the window.
 */
std::string renderPipeTrace(const std::vector<PipeRecord> &records,
                            unsigned width = 64);

} // namespace reno
