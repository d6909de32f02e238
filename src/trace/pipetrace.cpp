#include "trace/pipetrace.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "isa/inst.hpp"

namespace reno
{

void
PipeTracer::onRetire(const DynInst &d)
{
    ++seen_;
    if (seen_ <= opts_.skipFirst || full())
        return;

    PipeRecord r;
    r.seq = d.seq;
    r.pc = d.rec.pc;
    r.inst = d.rec.inst;
    r.fetchCycle = d.fetchCycle;
    r.renameCycle = d.renameCycle;
    r.issueCycle = d.issueCycle;
    r.completeCycle = d.completeCycle;
    r.retireCycle = d.retireCycle;
    r.elim = d.ren.elim;
    r.mispredicted = d.mispredicted;
    r.memLevel = d.memLevel;
    if (d.ren.hasDest) {
        r.destPreg = d.ren.destPreg;
        r.destDisp = d.ren.destDisp;
    }
    records_.push_back(r);
}

void
PipeTracer::clear()
{
    records_.clear();
    seen_ = 0;
}

std::string_view
elimKindName(ElimKind kind)
{
    switch (kind) {
      case ElimKind::None: return "";
      case ElimKind::Move: return "ME";
      case ElimKind::Fold: return "CF";
      case ElimKind::Cse:  return "CSE";
      case ElimKind::Ra:   return "RA";
    }
    return "";
}

namespace
{

/** Place @p mark at relative cycle @p at if it fits the window. */
void
place(std::string &lane, Cycle at, Cycle origin, char mark)
{
    if (at == InvalidCycle || at < origin)
        return;
    const Cycle rel = at - origin;
    if (rel < lane.size())
        lane[rel] = mark;
}

} // namespace

std::string
renderPipeLine(const PipeRecord &rec, Cycle origin, unsigned width)
{
    std::string lane(width, '.');
    place(lane, rec.fetchCycle, origin, 'f');
    place(lane, rec.renameCycle, origin, 'r');
    place(lane, rec.issueCycle, origin, 'i');
    place(lane, rec.completeCycle, origin, 'c');
    place(lane, rec.retireCycle, origin, 'R');

    std::string note;
    if (rec.eliminated()) {
        note = strprintf("  %s-collapsed -> [p%u:%+d]",
                         std::string(elimKindName(rec.elim)).c_str(),
                         rec.destPreg, int(rec.destDisp));
    } else if (rec.destPreg != InvalidPhysReg) {
        note = strprintf("  -> [p%u:%+d]", rec.destPreg,
                         int(rec.destDisp));
    }
    if (rec.mispredicted)
        note += "  MISPREDICT";

    return strprintf("[%s]  0x%04llx %-28s%s", lane.c_str(),
                     static_cast<unsigned long long>(rec.pc),
                     disassemble(rec.inst, rec.pc).c_str(),
                     note.c_str());
}

std::string
renderPipeTrace(const std::vector<PipeRecord> &records, unsigned width)
{
    if (records.empty())
        return "(empty trace)\n";

    const Cycle origin = records.front().fetchCycle;
    std::string out;
    out += strprintf("pipeline trace: %zu instructions, cycles %llu..\n"
                     "f=fetch r=rename i=issue c=complete R=retire; "
                     "collapsed instructions never issue\n",
                     records.size(),
                     static_cast<unsigned long long>(origin));

    std::uint64_t elim[NumElimKinds] = {};
    for (const PipeRecord &r : records) {
        out += renderPipeLine(r, origin, width);
        out += '\n';
        ++elim[static_cast<unsigned>(r.elim)];
    }

    std::uint64_t collapsed = 0;
    for (unsigned k = 1; k < NumElimKinds; ++k)
        collapsed += elim[k];
    out += strprintf("collapsed %llu/%zu (",
                     static_cast<unsigned long long>(collapsed),
                     records.size());
    for (unsigned k = 1; k < NumElimKinds; ++k) {
        out += strprintf(
            "%s%.*s %llu", k > 1 ? ", " : "",
            static_cast<int>(
                elimKindName(static_cast<ElimKind>(k)).size()),
            elimKindName(static_cast<ElimKind>(k)).data(),
            static_cast<unsigned long long>(elim[k]));
    }
    out += ")\n";
    return out;
}

} // namespace reno
