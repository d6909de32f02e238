#include "sample/checkpoint.hpp"

#include "common/digest.hpp"
#include "common/log.hpp"
#include "common/record.hpp"

namespace reno::sample
{

namespace
{

// Format (common/record.hpp records, one per line; v6):
//
//   reno-checkpoint v6
//   cores N
//   core i / prog / inst / exit / rand / done / pc / regs / output /
//     pages K + K "page" lines            (functional block, per core)
//   warmcfg D                            (warmConfigDigest, N folded)
//   bus L inval interv upgr wb + L sorted "busln" lines (MESI
//     directory; empty at one core, which keeps none)
//   sharedlevels S + S cache blocks      (L2 first)
//   corewarm i / lastblk / levels 2 + I$ and D$ cache blocks /
//     predictor block                    (per core)
//   digest H                             (FNV-1a over all of the above)
//
// A cache block is "cache name lruClock lines pfentries" followed by
// its "line" and "pfent" records; the predictor block is the
// composable-stack encoding (direction tables, BTB, RAS, indirect
// table). v6 gave every core count this one layout; v5 had a
// separate one-core warm half, so v5 files (and their keys, through
// the warm-config digest) no longer match.
constexpr const char *CheckpointTag = "reno-checkpoint v6";
constexpr const char *ProfileTag = "reno-funcprofile v1";

void
encodeCacheState(RecordWriter &out, const std::string &name,
                 const CacheState &state)
{
    out.put("cache", name, state.lruClock, state.validLines.size(),
            state.prefetch.entries.size());
    for (const CacheState::Line &l : state.validLines)
        out.put("line", l.index, l.tag, l.lruStamp, l.dirty,
                l.prefetched);
    for (const PrefetchState::Entry &e : state.prefetch.entries)
        out.put("pfent", e.index, e.regionTag, e.lastBlock, e.stride,
                e.confidence);
}

bool
decodeCacheState(RecordReader &in, const std::string &expected_name,
                 CacheState *out)
{
    std::string name;
    std::uint64_t count = 0, pf_count = 0;
    if (!in.get("cache", name, out->lruClock, count, pf_count) ||
        name != expected_name)
        return false;
    for (std::uint64_t i = 0; i < count; ++i) {
        CacheState::Line l;
        if (!in.get("line", l.index, l.tag, l.lruStamp, l.dirty,
                    l.prefetched))
            return false;
        out->validLines.push_back(l);
    }
    for (std::uint64_t i = 0; i < pf_count; ++i) {
        PrefetchState::Entry e;
        if (!in.get("pfent", e.index, e.regionTag, e.lastBlock, e.stride,
                    e.confidence))
            return false;
        out->prefetch.entries.push_back(e);
    }
    return true;
}

/** One core's functional half ("core i" header + snapshot). */
void
encodeEmuHalf(RecordWriter &out, unsigned core, const EmuCheckpoint &emu)
{
    out.put("core", core);
    out.put("prog", emu.progDigest);
    out.put("inst", emu.instCount);
    out.put("exit", emu.exitCode);
    out.put("rand", emu.randState);
    out.put("done", emu.done);
    out.put("pc", emu.state.pc);
    out.put("regs", emu.state.regs);
    out.put("output", Hex{emu.output});
    out.put("pages", emu.mem.pages().size());
    for (const auto &[page_num, page] : emu.mem.pages())
        out.put("page", page_num, Hex{page});
}

bool
decodeEmuHalf(RecordReader &in, unsigned core, EmuCheckpoint *emu)
{
    unsigned hdr_core = 0;
    std::uint64_t npages = 0;
    if (!in.get("core", hdr_core) || hdr_core != core ||
        !in.get("prog", emu->progDigest) ||
        !in.get("inst", emu->instCount) ||
        !in.get("exit", emu->exitCode) ||
        !in.get("rand", emu->randState) || !in.get("done", emu->done) ||
        !in.get("pc", emu->state.pc) ||
        !in.get("regs", emu->state.regs) ||
        !in.get("output", Hex{emu->output}) ||
        !in.get("pages", npages))
        return false;
    std::string bytes;
    for (std::uint64_t p = 0; p < npages; ++p) {
        std::uint64_t page_num = 0;
        if (!in.get("page", page_num, Hex{bytes}) ||
            page_num > (~Addr{0} >> SparseMemory::PageBits) ||
            bytes.size() != SparseMemory::PageSize)
            return false;
        emu->mem.load(page_num << SparseMemory::PageBits,
                      reinterpret_cast<const std::uint8_t *>(bytes.data()),
                      bytes.size());
    }
    return true;
}

/** The composable-predictor state block (direction tables, BTB, RAS,
 *  indirect-target table), one per "corewarm" block. */
void
encodeBpredState(RecordWriter &out, const BranchPredState &bp)
{
    out.put("bpdir", bp.dir.history, bp.dir.tables.size());
    // Signed rendering: two's-complement words (perceptron weights)
    // print as small negative numbers, not 20-digit wrap-arounds.
    for (const std::vector<std::uint64_t> &table : bp.dir.tables)
        out.put("dtab", table.size(),
                std::vector<std::int64_t>(table.begin(), table.end()));
    out.put("btb", bp.btb.entries.size(), bp.btb.lruClock);
    for (const BtbState::Entry &e : bp.btb.entries)
        out.put("btbent", e.index, e.tag, e.target, e.lruStamp);
    out.put("ras", bp.ras.stack.size(), bp.ras.top, bp.ras.stack);
    out.put("itt", bp.indirect.entries.size(), bp.indirect.history);
    for (const IndirectState::Entry &e : bp.indirect.entries)
        out.put("ittent", e.index, e.tag, e.target);
}

bool
decodeBpredState(RecordReader &in, BranchPredState *out)
{
    BranchPredState &bp = *out;
    std::uint64_t ntables = 0;
    if (!in.get("bpdir", bp.dir.history, ntables))
        return false;
    for (std::uint64_t t = 0; t < ntables; ++t) {
        std::uint64_t len = 0;
        std::vector<std::int64_t> table;
        if (!in.get("dtab", len, table) || table.size() != len)
            return false;
        bp.dir.tables.emplace_back(table.begin(), table.end());
    }
    std::uint64_t nbtb = 0;
    if (!in.get("btb", nbtb, bp.btb.lruClock))
        return false;
    for (std::uint64_t i = 0; i < nbtb; ++i) {
        BtbState::Entry e;
        if (!in.get("btbent", e.index, e.tag, e.target, e.lruStamp))
            return false;
        bp.btb.entries.push_back(e);
    }
    std::uint64_t nras = 0;
    if (!in.get("ras", nras, bp.ras.top, bp.ras.stack) ||
        bp.ras.stack.size() != nras)
        return false;
    std::uint64_t nitt = 0;
    if (!in.get("itt", nitt, bp.indirect.history))
        return false;
    for (std::uint64_t i = 0; i < nitt; ++i) {
        IndirectState::Entry e;
        if (!in.get("ittent", e.index, e.tag, e.target))
            return false;
        bp.indirect.entries.push_back(e);
    }
    return true;
}

/** The warm half: MESI directory, shared stack, then one "corewarm"
 *  block (lastblk + L1s + predictor) per core. */
void
encodeWarmHalf(RecordWriter &out, const WarmState &warm)
{
    out.put("warmcfg", warmConfigDigest(warm.memParams(), warm.bpParams(),
                                        warm.numCores()));
    const CoherenceBusState bus = warm.bus().exportState();
    out.put("bus", bus.lines.size(), bus.invalidations,
            bus.interventions, bus.upgradeMisses, bus.writebacks);
    for (const CoherenceBusState::Line &l : bus.lines)
        out.put("busln", l.line, l.sharers, l.owner, l.modified);
    out.put("sharedlevels", warm.numSharedLevels());
    for (std::size_t i = 0; i < warm.numSharedLevels(); ++i)
        encodeCacheState(out, warm.sharedLevel(i).name(),
                         warm.sharedLevel(i).exportState());
    for (unsigned c = 0; c < warm.numCores(); ++c) {
        out.put("corewarm", c);
        out.put("lastblk", warm.lastFetchBlock(c));
        const MemHierarchy::State mem_state =
            warm.coreMem(c).exportState();
        const std::vector<const Cache *> levels =
            warm.coreMem(c).levels();
        out.put("levels", mem_state.caches.size());
        for (std::size_t i = 0; i < mem_state.caches.size(); ++i)
            encodeCacheState(out, levels[i]->name(),
                             mem_state.caches[i]);
        encodeBpredState(out, warm.coreBp(c).exportState());
    }
}

bool
decodeWarmHalf(RecordReader &in, const MemHierarchy::Params &mem_params,
               const BranchPredParams &bp_params, unsigned num_cores,
               std::shared_ptr<WarmState> *out, std::string *why)
{
    const auto fail = [why](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };

    auto warm = std::make_shared<WarmState>(mem_params, bp_params,
                                            num_cores);

    std::uint64_t warmcfg = 0;
    if (!in.get("warmcfg", warmcfg) ||
        warmcfg != warmConfigDigest(mem_params, bp_params, num_cores))
        return fail("warm-config digest does not match the target "
                    "models");

    CoherenceBusState bus;
    std::uint64_t nlines = 0;
    if (!in.get("bus", nlines, bus.invalidations, bus.interventions,
                bus.upgradeMisses, bus.writebacks))
        return fail("corrupt MESI bus header");
    for (std::uint64_t i = 0; i < nlines; ++i) {
        CoherenceBusState::Line l;
        if (!in.get("busln", l.line, l.sharers, l.owner, l.modified))
            return fail("corrupt MESI directory line");
        bus.lines.push_back(l);
    }
    if (!warm->bus().importState(bus))
        return fail(strprintf("MESI directory does not fit a %u-core "
                              "bus", num_cores));

    std::uint64_t nshared = 0;
    if (!in.get("sharedlevels", nshared) ||
        nshared != warm->numSharedLevels())
        return fail("shared-stack depth does not match the target "
                    "geometry");
    for (std::size_t i = 0; i < nshared; ++i) {
        CacheState state;
        if (!decodeCacheState(in, warm->sharedLevel(i).name(), &state) ||
            !warm->sharedLevel(i).importState(state))
            return fail(strprintf("corrupt shared-level block "
                                  "('%s')",
                                  warm->sharedLevel(i).name()
                                      .c_str()));
    }

    for (unsigned c = 0; c < num_cores; ++c) {
        unsigned hdr_core = 0;
        std::uint64_t nlevels = 0;
        const std::vector<const Cache *> levels =
            warm->coreMem(c).levels();
        if (!in.get("corewarm", hdr_core) || hdr_core != c ||
            !in.get("lastblk", warm->lastFetchBlock(c)) ||
            !in.get("levels", nlevels) || nlevels != levels.size())
            return fail(strprintf("corrupt per-core warm block "
                                  "(core %u)", c));
        MemHierarchy::State mem_state;
        mem_state.caches.resize(nlevels);
        for (std::size_t i = 0; i < nlevels; ++i) {
            if (!decodeCacheState(in, levels[i]->name(),
                                  &mem_state.caches[i]))
                return fail(strprintf("corrupt per-core warm block "
                                      "(core %u, '%s')", c,
                                      levels[i]->name().c_str()));
        }
        if (!warm->coreMem(c).importState(mem_state))
            return fail(strprintf("per-core L1 state does not fit "
                                  "(core %u)", c));
        BranchPredState bp;
        if (!decodeBpredState(in, &bp) ||
            !warm->coreBp(c).importState(bp))
            return fail(strprintf("corrupt per-core predictor block "
                                  "(core %u)", c));
    }
    *out = std::move(warm);
    return true;
}

void
storeFile(const std::string &path, const std::string &contents)
{
    std::string why;
    if (!writeFileAtomic(path, contents, &why))
        warn("checkpoint store: %s", why.c_str());
}

} // namespace

std::uint64_t
checkpointDigest(const EmuCheckpoint &ckpt)
{
    Fnv64 h;
    h.update("reno-ckpt-digest-v1");
    for (unsigned r = 0; r < NumLogRegs; ++r)
        h.update(ckpt.state.regs[r]);
    h.update(ckpt.state.pc);
    h.update(ckpt.mem.digest());
    h.update(ckpt.output);
    h.update(ckpt.instCount);
    h.update(ckpt.exitCode);
    h.update(ckpt.randState);
    h.update(ckpt.done);
    h.update(ckpt.progDigest);
    return h.value();
}

std::uint64_t
checkpointKey(const Workload &workload, std::uint64_t start_inst,
              std::uint64_t warm_digest)
{
    Fnv64 h;
    h.update("reno-ckpt-key-v2");
    h.update(std::string(workload.source));
    h.update(workload.seed);
    h.update(start_inst);
    h.update(warm_digest);
    return h.value();
}

std::uint64_t
profileKey(const Workload &workload, unsigned num_cores)
{
    Fnv64 h;
    h.update("reno-funcprofile-key-v1");
    h.update(std::string(workload.source));
    h.update(workload.seed);
    // Folded only beyond one core: single-core keys predate
    // multi-core profiles, and leaving them unchanged keeps existing
    // disk caches valid.
    if (num_cores > 1)
        h.update(std::uint64_t{num_cores});
    return h.value();
}

std::string
CheckpointStore::encode(const SampleCheckpoint &ckpt)
{
    if (!ckpt.usable())
        fatal("encoding an unusable checkpoint");

    RecordWriter out;
    out.put(CheckpointTag);
    out.put("cores", ckpt.numCores());
    for (unsigned i = 0; i < ckpt.numCores(); ++i)
        encodeEmuHalf(out, i, *ckpt.emus[i]);
    encodeWarmHalf(out, *ckpt.warm);

    // Integrity digest over everything above.
    Fnv64 h;
    h.update(out.str());
    out.put("digest", h.value());
    return out.take();
}

bool
CheckpointStore::decode(const std::string &text,
                        const MemHierarchy::Params &mem_params,
                        const BranchPredParams &bp_params,
                        SampleCheckpoint *out,
                        unsigned expected_cores, std::string *why)
{
    const auto fail = [why](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };

    // Verify the integrity digest on the last line first. (npos + 1
    // wraps to 0: a one-line file is all digest line.)
    const std::string_view all = text;
    const std::size_t digest_pos =
        all.empty() ? 0 : all.substr(0, all.size() - 1).rfind('\n') + 1;
    if (all.empty() || all.back() != '\n' ||
        all.substr(digest_pos, 7) != "digest ")
        return fail("no integrity digest (truncated file?)");
    std::uint64_t stored = 0;
    if (!RecordReader(all.substr(digest_pos)).get("digest", stored))
        return fail("malformed integrity digest");
    const std::string_view body = all.substr(0, digest_pos);
    if (Fnv64().update(body).value() != stored)
        return fail("integrity digest mismatch (corrupt or "
                    "spliced file)");

    RecordReader in(body);
    if (!in.get(CheckpointTag))
        return fail(strprintf("bad or truncated header (expected "
                              "'%s')", CheckpointTag));

    std::uint64_t num_cores = 0;
    if (!in.get("cores", num_cores) || num_cores == 0)
        return fail("missing or zero core count");
    if (num_cores != expected_cores)
        return fail(strprintf("checkpoint snapshots %llu cores, "
                              "expected %u",
                              static_cast<unsigned long long>(
                                  num_cores),
                              expected_cores));

    std::vector<std::shared_ptr<const EmuCheckpoint>> emus;
    for (unsigned c = 0; c < expected_cores; ++c) {
        auto e = std::make_shared<EmuCheckpoint>();
        if (!decodeEmuHalf(in, c, e.get()))
            return fail(strprintf("corrupt functional block (core %u)",
                                  c));
        emus.push_back(std::move(e));
    }

    std::shared_ptr<WarmState> warm;
    if (!decodeWarmHalf(in, mem_params, bp_params, expected_cores, &warm,
                        why))
        return false;
    if (!in.finish())
        return fail("unexpected records before the integrity digest");
    out->emus = std::move(emus);
    out->warm = std::move(warm);
    return true;
}

SampleCheckpoint
CheckpointStore::decodeOrDie(const std::string &text,
                             const MemHierarchy::Params &mem_params,
                             const BranchPredParams &bp_params,
                             unsigned expected_cores)
{
    SampleCheckpoint out;
    std::string why;
    if (!decode(text, mem_params, bp_params, &out, expected_cores,
                &why))
        fatal("checkpoint decode failed: %s", why.c_str());
    return out;
}

std::string
CheckpointStore::encodeProfile(const FuncProfile &profile)
{
    RecordWriter out;
    out.put(ProfileTag);
    out.put("insts", profile.totalInsts);
    out.put("memdigest", profile.memDigest);
    return out.take();
}

bool
CheckpointStore::decodeProfile(const std::string &text,
                               FuncProfile *out, std::string *why)
{
    RecordReader in(text);
    FuncProfile p;
    if (!in.get(ProfileTag) || !in.get("insts", p.totalInsts) ||
        !in.get("memdigest", p.memDigest) || !in.finish()) {
        if (why)
            *why = in.error();
        return false;
    }
    *out = p;
    return true;
}

CheckpointStore::CheckpointStore(std::string dir)
    : dir_(std::move(dir))
{
}

std::string
CheckpointStore::checkpointPath(std::uint64_t key) const
{
    return dir_ + "/" + digestHex(key) + ".ckpt";
}

std::string
CheckpointStore::profilePath(std::uint64_t key) const
{
    return dir_ + "/" + digestHex(key) + ".prof";
}


SampleCheckpoint
CheckpointStore::lookup(const Workload &workload,
                        std::uint64_t start_inst,
                        const MemHierarchy::Params &mem_params,
                        const BranchPredParams &bp_params,
                        unsigned num_cores)
{
    const std::uint64_t key = checkpointKey(
        workload, start_inst,
        warmConfigDigest(mem_params, bp_params, num_cores));
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = mem_.find(key);
        if (it != mem_.end())
            return it->second;
    }
    if (dir_.empty())
        return {};
    std::string text;
    if (!readFile(checkpointPath(key), &text))
        return {};
    SampleCheckpoint ckpt;
    std::string why;
    if (!decode(text, mem_params, bp_params, &ckpt, num_cores,
                &why)) {
        warn("checkpoint store: ignoring malformed entry %s (%s)",
             checkpointPath(key).c_str(), why.c_str());
        return {};
    }
    std::lock_guard<std::mutex> lock(mu_);
    return mem_.emplace(key, std::move(ckpt)).first->second;
}

SampleCheckpoint
CheckpointStore::store(const Workload &workload,
                       std::uint64_t start_inst,
                       std::vector<EmuCheckpoint> emus,
                       const WarmState &warm)
{
    if (emus.size() != warm.numCores())
        fatal("checkpoint store: %u-core warm state given %zu "
              "functional snapshots",
              warm.numCores(), emus.size());
    SampleCheckpoint ckpt;
    for (EmuCheckpoint &emu : emus)
        ckpt.emus.push_back(
            std::make_shared<const EmuCheckpoint>(std::move(emu)));
    ckpt.warm = std::make_shared<const WarmState>(warm);
    const std::uint64_t key = checkpointKey(
        workload, start_inst,
        warmConfigDigest(warm.memParams(), warm.bpParams(),
                         warm.numCores()));
    {
        std::lock_guard<std::mutex> lock(mu_);
        mem_[key] = ckpt;
    }
    if (!dir_.empty())
        storeFile(checkpointPath(key), encode(ckpt));
    return ckpt;
}

SampleCheckpoint
CheckpointStore::store(const Workload &workload,
                       std::uint64_t start_inst, EmuCheckpoint emu,
                       const WarmState &warm)
{
    return store(workload, start_inst,
                 std::vector<EmuCheckpoint>{std::move(emu)}, warm);
}

bool
CheckpointStore::lookupProfile(std::uint64_t key, FuncProfile *out)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = profiles_.find(key);
        if (it != profiles_.end()) {
            *out = it->second;
            return true;
        }
    }
    if (dir_.empty())
        return false;
    std::string text, why;
    if (!readFile(profilePath(key), &text))
        return false;
    if (!decodeProfile(text, out, &why)) {
        warn("checkpoint store: ignoring malformed entry %s (%s)",
             profilePath(key).c_str(), why.c_str());
        return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    profiles_.emplace(key, *out);
    return true;
}

void
CheckpointStore::storeProfile(std::uint64_t key,
                              const FuncProfile &profile)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        profiles_[key] = profile;
    }
    if (!dir_.empty())
        storeFile(profilePath(key), encodeProfile(profile));
}

} // namespace reno::sample
