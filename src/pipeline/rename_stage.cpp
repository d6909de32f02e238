#include "pipeline/rename_stage.hpp"

#include "common/log.hpp"

namespace reno
{

void
RenameStage::tick()
{
    renamer_.beginGroup();
    unsigned n = 0;
    while (n < params_.renameWidth && !s_.fetchBuf.empty()) {
        DynInst &d = *s_.fetchBuf.front();
        if (d.fetchReady > s_.now)
            break;
        const Instruction &inst = d.inst();
        const bool sys = inst.op == Opcode::SYSCALL;

        RenameStall stall = RenameStall::None;
        if (s_.rob.size() >= params_.robEntries)
            stall = RenameStall::Rob;
        else if (sys && !s_.rob.empty())
            break;  // serialize
        else if (!sys && s_.iqCount >= params_.iqEntries)
            stall = RenameStall::Iq;
        else if (d.isLoadInst() && s_.lqCount >= params_.lqEntries)
            stall = RenameStall::Lsq;
        else if (d.isStoreInst() && s_.sqCount >= params_.sqEntries)
            stall = RenameStall::Lsq;
        else if (inst.hasDest() && !renamer_.ensureFreePreg())
            stall = RenameStall::Pregs;
        if (stall != RenameStall::None) {
            ++stallCounter(stall);
            s_.renameStall = stall;
            s_.renameStallCycle = s_.now;
            break;
        }

        d.ren = renamer_.rename(RenameIn{inst, d.rec.result});
        d.renamed = true;
        d.renameCycle = s_.now;
        d.readyEarliest = s_.now + params_.renameDepth;

        if (sys) {
            d.completeCycle = d.readyEarliest;
            if (d.ren.hasDest) {
                s_.pregReady[d.ren.destPreg] = d.completeCycle;
                s_.pregIssue[d.ren.destPreg] = InvalidCycle;
                s_.pregProducer[d.ren.destPreg] = d.seq;
            }
        } else if (d.ren.eliminated()) {
            // Collapsed: no issue queue entry, no execution; the
            // instruction simply flows to retirement. Consumers track
            // the shared register's original producer.
            d.completeCycle = d.readyEarliest;
        } else {
            d.inIq = true;
            ++s_.iqCount;
            if (d.isLoadInst()) {
                d.inLq = true;
                ++s_.lqCount;
            }
            if (d.isStoreInst()) {
                d.inSq = true;
                ++s_.sqCount;
                d.storeSet = ssets_.storeDispatched(d.rec.pc, d.seq);
            }
            s_.dispatch(d);
        }

        if (d.isLoadInst())
            s_.robLoads.push_back(&d);
        if (d.isStoreInst())
            s_.robStores.push_back(&d);
        s_.rob.push_back(s_.fetchBuf.front());
        s_.fetchBuf.pop_front();
        ++n;
        if (sys)
            break;
    }
    if (n > 0)
        s_.active = true;
}

std::uint64_t &
RenameStage::stallCounter(RenameStall stall)
{
    switch (stall) {
      case RenameStall::Rob: return stats_.stallRob;
      case RenameStall::Iq: return stats_.stallIq;
      case RenameStall::Lsq: return stats_.stallLsq;
      case RenameStall::Pregs: return stats_.stallPregs;
      case RenameStall::None: break;
    }
    panic("rename: no stall counter for RenameStall::None");
}

void
RenameStage::skipIdle(Cycle cycles)
{
    // An idle tick that stalled rename stalls it again, on the same
    // resource, every cycle until the next event.
    if (s_.renameStallCycle == InvalidCycle ||
        s_.renameStallCycle + 1 != s_.now)
        return;
    stallCounter(s_.renameStall) += cycles;
    s_.renameStallCycle += cycles;
}

} // namespace reno
