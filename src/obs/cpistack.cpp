#include "obs/cpistack.hpp"

#include "pipeline/machine_state.hpp"

namespace reno::obs
{

const char *
cpiBucketName(CpiBucket b)
{
    switch (b) {
      case CpiBucket::Base: return "base";
      case CpiBucket::FrontIcache: return "frontend.icache";
      case CpiBucket::FrontBpred: return "frontend.bpred";
      case CpiBucket::BackRob: return "backend.rob";
      case CpiBucket::BackIq: return "backend.iq";
      case CpiBucket::BackPregs: return "backend.pregs";
      case CpiBucket::BackLsq: return "backend.lsq";
      case CpiBucket::BackDcacheL1: return "backend.dcache.l1";
      case CpiBucket::BackDcacheL2: return "backend.dcache.l2";
      case CpiBucket::BackDcacheMem: return "backend.dcache.mem";
      case CpiBucket::BackCoherence: return "backend.coherence";
      case CpiBucket::Drain: return "drain";
    }
    return "?";
}

/**
 * One bucket per cycle. Core::tick calls CommitStage::tick exactly
 * once per cycle, and an idle skip charges one bucket per skipped
 * cycle, so the buckets sum to the cycle count by construction; the
 * tree below only decides WHICH bucket this cycle lands in.
 *
 * Priority (first match wins):
 *   committed > 0                      -> base
 *   retire-port back-pressure          -> drain (the "vortex")
 *   ROB head pending                   -> a backend bucket from the
 *                                         head's own state
 *   ROB empty                          -> a frontend bucket from the
 *                                         fetch-wait hint, else drain
 */
CpiBucket
classifyCycle(const MachineState &s, unsigned committed,
              bool retire_port_stall)
{
    CpiBucket b = CpiBucket::Drain;
    if (committed > 0) {
        b = CpiBucket::Base;
    } else if (retire_port_stall) {
        b = CpiBucket::Drain;
    } else if (!s.rob.empty()) {
        const DynInst &d = *s.rob.front();
        if (d.issued) {
            // Executing: charge the head's own latency source.
            if (d.isLoadInst()) {
                if (d.cohDelayed)
                    b = CpiBucket::BackCoherence;
                else if (d.memLevel == MemHitLevel::Memory)
                    b = CpiBucket::BackDcacheMem;
                else if (d.memLevel == MemHitLevel::L2)
                    b = CpiBucket::BackDcacheL2;
                else
                    b = CpiBucket::BackDcacheL1;
            } else if (d.isStoreInst()) {
                b = CpiBucket::BackLsq;
            } else {
                b = CpiBucket::BackRob;
            }
        } else if (d.issueDom == IssueDom::MemDep) {
            // Store-set blocked load at the head.
            b = CpiBucket::BackLsq;
        } else if (s.renameStall != RenameStall::None &&
                   s.renameStallCycle != InvalidCycle &&
                   s.renameStallCycle + 1 == s.now) {
            // Rename reported a structural stall LAST cycle (rename
            // runs after commit within a tick): the machine is
            // resource-bound, not latency-bound.
            switch (s.renameStall) {
              case RenameStall::Rob: b = CpiBucket::BackRob; break;
              case RenameStall::Iq: b = CpiBucket::BackIq; break;
              case RenameStall::Lsq: b = CpiBucket::BackLsq; break;
              case RenameStall::Pregs: b = CpiBucket::BackPregs; break;
              case RenameStall::None: break;
            }
        } else {
            // Head dispatched but not yet picked: scheduler latency.
            b = CpiBucket::BackIq;
        }
    } else if (s.fetchBlocked > 0) {
        // Fetch is frozen behind an unresolved mispredicted branch.
        b = CpiBucket::FrontBpred;
    } else {
        switch (s.fetchWait) {
          case FetchWait::Icache: b = CpiBucket::FrontIcache; break;
          case FetchWait::Redirect: b = CpiBucket::FrontBpred; break;
          case FetchWait::Squash:
          case FetchWait::None: b = CpiBucket::Drain; break;
        }
    }
    return b;
}

} // namespace reno::obs
