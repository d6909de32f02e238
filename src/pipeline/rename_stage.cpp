#include "pipeline/rename_stage.hpp"

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

        if (s_.rob.size() >= params_.robEntries) {
            ++stats_.stallRob;
            s_.renameStall = RenameStall::Rob;
            s_.renameStallCycle = s_.now;
            break;
        }
        if (sys && !s_.rob.empty())
            break;  // serialize
        if (!sys && s_.iqCount >= params_.iqEntries) {
            ++stats_.stallIq;
            s_.renameStall = RenameStall::Iq;
            s_.renameStallCycle = s_.now;
            break;
        }
        if (d.isLoadInst() && s_.lqCount >= params_.lqEntries) {
            ++stats_.stallLsq;
            s_.renameStall = RenameStall::Lsq;
            s_.renameStallCycle = s_.now;
            break;
        }
        if (d.isStoreInst() && s_.sqCount >= params_.sqEntries) {
            ++stats_.stallLsq;
            s_.renameStall = RenameStall::Lsq;
            s_.renameStallCycle = s_.now;
            break;
        }
        if (inst.hasDest() && !renamer_.ensureFreePreg()) {
            ++stats_.stallPregs;
            s_.renameStall = RenameStall::Pregs;
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
}

} // namespace reno
