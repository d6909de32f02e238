/**
 * @file
 * The decoded-superblock engine's templates: Emulator::runUntil with an
 * event sink, the bounded-run loop behind it and the threaded-dispatch
 * loop execDecoded (see emu/decoded.hpp for the block format).
 *
 * Included by emulator.cpp, which instantiates them with NullSink for
 * run()/runUntil(bound), and by any caller that drives the engine with
 * its own sink (functional warming, sample/warmup.cpp). Every hook of
 * a sink is an inline call, so a sink whose hooks are empty compiles
 * to the plain engine.
 */
#pragma once

#include <algorithm>

#include "common/log.hpp"
#include "emu/emulator.hpp"

// Threaded dispatch (computed goto) removes the per-op switch's bounds
// check and gives each handler its own indirect-branch site, which the
// host BTB predicts far better than one shared switch branch. Portable
// fallback: a plain switch over Handler.
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(RENO_NO_COMPUTED_GOTO)
#define RENO_COMPUTED_GOTO 1
#else
#define RENO_COMPUTED_GOTO 0
#endif

namespace reno
{

/** Report one interpreted step()'s events to @p sink, in the order
 *  the decoded engine reports them. */
template <class Sink>
inline void
reportStep(Sink &sink, const ExecRecord &rec)
{
    sink.fetch(rec.pc);
    const InstClass cls = rec.inst.info().cls;
    if (cls == InstClass::Load || cls == InstClass::Store)
        sink.data(rec.effAddr, cls == InstClass::Store);
    else if (isControl(rec.inst.op))
        sink.control(rec.pc, rec.inst, rec.taken, rec.npc);
}

template <class Sink>
std::uint64_t
Emulator::runUntil(std::uint64_t inst_bound, Sink &sink)
{
    if (inst_bound < instCount_)
        fatal("Emulator::runUntil: bound %llu is below the %llu "
              "instructions already retired",
              static_cast<unsigned long long>(inst_bound),
              static_cast<unsigned long long>(instCount_));
    return runBounded(inst_bound, sink);
}

template <class Sink>
std::uint64_t
Emulator::runBounded(std::uint64_t inst_bound, Sink &sink)
{
    if (!opts_.decodedExec) {
        while (!done_ && instCount_ < inst_bound)
            reportStep(sink, step());
        return instCount_;
    }

    // The decoded engine reads registers unguarded; it relies on
    // regs[RegZero] being 0 (SET_REG re-zeroes it after every write).
    state_.regs[RegZero] = 0;
    while (!done_ && instCount_ < inst_bound) {
        if (instCount_ >= opts_.maxInsts)
            fatal("emulator exceeded %llu instructions (runaway "
                  "program?)",
                  static_cast<unsigned long long>(opts_.maxInsts));

        DecodedBlock *blk;
        std::size_t idx = 0;
        if (curBlock_ != nullptr && curIdx_ < curBlock_->ops.size() &&
            curBlock_->ops[curIdx_].pc == state_.pc) {
            // Resume mid-block (step()/checkpoint-chop cursor).
            blk = curBlock_;
            idx = curIdx_;
        } else {
            blk = lookupOrDecode(state_.pc);
        }
        curBlock_ = nullptr;
        if (blk == nullptr) {
            // pc outside text or an un-decodable word: one interpreter
            // step reproduces the exact fatal/panic diagnostics.
            reportStep(sink, step());
            continue;
        }
        const std::uint64_t before = instCount_;
        execDecoded(blk, idx, std::min(inst_bound, opts_.maxInsts),
                    sink);
        decodedInsts_ += instCount_ - before;
    }
    return instCount_;
}

template <class Sink>
void
Emulator::execDecoded(DecodedBlock *blk, std::size_t start_idx,
                      std::uint64_t limit, Sink &sink)
{
    std::uint64_t *const regs = state_.regs;

// Write a destination register, preserving the regs[RegZero] == 0
// invariant branchlessly (a write to r31 lands and is re-zeroed).
#define SET_REG(r, v)                                                   \
    do {                                                                \
        regs[(r)] = (v);                                                \
        regs[RegZero] = 0;                                              \
    } while (0)

#define S64(x) static_cast<std::int64_t>(x)

// Retire a non-terminal op and fall through to the next one.
#define ADVANCE()                                                       \
    do {                                                                \
        ++instCount_;                                                   \
        ++op;                                                           \
        if (op == opEnd) {                                              \
            npc = op[-1].pc + 4;                                        \
            takenEdge = false;                                          \
            goto block_done;                                            \
        }                                                               \
        if (instCount_ >= limit)                                        \
            goto pause;                                                 \
        DISPATCH();                                                     \
    } while (0)

// Retire the block's terminal op and redirect to next_pc.
#define FINISH(next_pc, taken)                                          \
    do {                                                                \
        ++instCount_;                                                   \
        npc = (next_pc);                                                \
        takenEdge = (taken);                                            \
        goto block_done;                                                \
    } while (0)

// A conditional branch: report it, then leave the block.
#define BRANCH(taken)                                                   \
    do {                                                                \
        const bool t_ = (taken);                                        \
        const Addr n_ = t_ ? op->target : op->pc + 4;                   \
        sink.control(op->pc, op->inst, t_, n_);                         \
        FINISH(n_, t_);                                                 \
    } while (0)

// BR/BSR: chained through inside a superblock (the next op sits at the
// transfer target), terminal otherwise.
#define CHAIN_OR_FINISH()                                               \
    do {                                                                \
        sink.control(op->pc, op->inst, true, op->target);               \
        if (op + 1 != opEnd) {                                          \
            ++instCount_;                                               \
            ++op;                                                       \
            if (instCount_ >= limit)                                    \
                goto pause;                                             \
            DISPATCH();                                                 \
        }                                                               \
        FINISH(op->target, true);                                       \
    } while (0)

#if RENO_COMPUTED_GOTO
    // One entry per Handler, in exact enum order (decoded.hpp).
    static const void *const kJump[] = {
        &&lbl_Add, &&lbl_Sub, &&lbl_Mul, &&lbl_Div, &&lbl_Divu,
        &&lbl_Rem, &&lbl_And, &&lbl_Or, &&lbl_Xor, &&lbl_Bic,
        &&lbl_Sll, &&lbl_Srl, &&lbl_Sra, &&lbl_Seq, &&lbl_Slt,
        &&lbl_Sle, &&lbl_Sltu, &&lbl_Sleu, &&lbl_AddI, &&lbl_MulI,
        &&lbl_AndI, &&lbl_OrI, &&lbl_XorI, &&lbl_SllI, &&lbl_SrlI,
        &&lbl_SraI, &&lbl_SeqI, &&lbl_SltI, &&lbl_SleI, &&lbl_SltuI,
        &&lbl_SleuI, &&lbl_Lui, &&lbl_Load, &&lbl_Store, &&lbl_Beq,
        &&lbl_Bne, &&lbl_Blt, &&lbl_Bge, &&lbl_Ble, &&lbl_Bgt,
        &&lbl_Br, &&lbl_Bsr, &&lbl_Jsr, &&lbl_Jmp, &&lbl_Syscall,
    };
    static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                  static_cast<std::size_t>(Handler::NumHandlers));
#define HANDLER(name) lbl_##name
#define DISPATCH()                                                      \
    do {                                                                \
        sink.fetch(op->pc);                                             \
        goto *kJump[static_cast<std::size_t>(op->handler)];             \
    } while (0)
#else
#define HANDLER(name) case Handler::name
#define DISPATCH() goto dispatch
#endif

    for (;;) {
        const DecodedOp *op = blk->ops.data() + start_idx;
        const DecodedOp *const opEnd = blk->ops.data() + blk->ops.size();
        start_idx = 0;
        Addr npc = 0;
        bool takenEdge = false;

#if RENO_COMPUTED_GOTO
        DISPATCH();
#else
      dispatch:
        sink.fetch(op->pc);
        switch (op->handler) {
#endif

    HANDLER(Add):
        SET_REG(op->rc, regs[op->ra] + regs[op->rb]);
        ADVANCE();
    HANDLER(Sub):
        SET_REG(op->rc, regs[op->ra] - regs[op->rb]);
        ADVANCE();
    HANDLER(Mul):
        SET_REG(op->rc, regs[op->ra] * regs[op->rb]);
        ADVANCE();
    HANDLER(Div):
        // DIV/DIVU/REM share evalAlu's edge-case semantics
        // (divide-by-zero, INT64_MIN / -1); they are rare enough that
        // the call costs nothing measurable.
        SET_REG(op->rc,
                evalAlu(Opcode::DIV, regs[op->ra], regs[op->rb], 0));
        ADVANCE();
    HANDLER(Divu):
        SET_REG(op->rc,
                evalAlu(Opcode::DIVU, regs[op->ra], regs[op->rb], 0));
        ADVANCE();
    HANDLER(Rem):
        SET_REG(op->rc,
                evalAlu(Opcode::REM, regs[op->ra], regs[op->rb], 0));
        ADVANCE();
    HANDLER(And):
        SET_REG(op->rc, regs[op->ra] & regs[op->rb]);
        ADVANCE();
    HANDLER(Or):
        SET_REG(op->rc, regs[op->ra] | regs[op->rb]);
        ADVANCE();
    HANDLER(Xor):
        SET_REG(op->rc, regs[op->ra] ^ regs[op->rb]);
        ADVANCE();
    HANDLER(Bic):
        SET_REG(op->rc, regs[op->ra] & ~regs[op->rb]);
        ADVANCE();
    HANDLER(Sll):
        SET_REG(op->rc, regs[op->ra] << (regs[op->rb] & 63));
        ADVANCE();
    HANDLER(Srl):
        SET_REG(op->rc, regs[op->ra] >> (regs[op->rb] & 63));
        ADVANCE();
    HANDLER(Sra):
        SET_REG(op->rc,
                static_cast<std::uint64_t>(
                    S64(regs[op->ra]) >> (regs[op->rb] & 63)));
        ADVANCE();
    HANDLER(Seq):
        SET_REG(op->rc, regs[op->ra] == regs[op->rb] ? 1 : 0);
        ADVANCE();
    HANDLER(Slt):
        SET_REG(op->rc, S64(regs[op->ra]) < S64(regs[op->rb]) ? 1 : 0);
        ADVANCE();
    HANDLER(Sle):
        SET_REG(op->rc, S64(regs[op->ra]) <= S64(regs[op->rb]) ? 1 : 0);
        ADVANCE();
    HANDLER(Sltu):
        SET_REG(op->rc, regs[op->ra] < regs[op->rb] ? 1 : 0);
        ADVANCE();
    HANDLER(Sleu):
        SET_REG(op->rc, regs[op->ra] <= regs[op->rb] ? 1 : 0);
        ADVANCE();

    HANDLER(AddI):
        SET_REG(op->rc,
                regs[op->ra] + static_cast<std::uint64_t>(op->immS));
        ADVANCE();
    HANDLER(MulI):
        SET_REG(op->rc,
                regs[op->ra] * static_cast<std::uint64_t>(op->immS));
        ADVANCE();
    HANDLER(AndI):
        SET_REG(op->rc, regs[op->ra] & op->immZ);
        ADVANCE();
    HANDLER(OrI):
        SET_REG(op->rc, regs[op->ra] | op->immZ);
        ADVANCE();
    HANDLER(XorI):
        SET_REG(op->rc, regs[op->ra] ^ op->immZ);
        ADVANCE();
    HANDLER(SllI):
        SET_REG(op->rc,
                regs[op->ra] << static_cast<unsigned>(op->immS & 63));
        ADVANCE();
    HANDLER(SrlI):
        SET_REG(op->rc,
                regs[op->ra] >> static_cast<unsigned>(op->immS & 63));
        ADVANCE();
    HANDLER(SraI):
        SET_REG(op->rc,
                static_cast<std::uint64_t>(
                    S64(regs[op->ra]) >>
                    static_cast<unsigned>(op->immS & 63)));
        ADVANCE();
    HANDLER(SeqI):
        SET_REG(op->rc,
                regs[op->ra] == static_cast<std::uint64_t>(op->immS)
                    ? 1 : 0);
        ADVANCE();
    HANDLER(SltI):
        SET_REG(op->rc, S64(regs[op->ra]) < op->immS ? 1 : 0);
        ADVANCE();
    HANDLER(SleI):
        SET_REG(op->rc, S64(regs[op->ra]) <= op->immS ? 1 : 0);
        ADVANCE();
    HANDLER(SltuI):
        SET_REG(op->rc,
                regs[op->ra] < static_cast<std::uint64_t>(op->immS)
                    ? 1 : 0);
        ADVANCE();
    HANDLER(SleuI):
        SET_REG(op->rc,
                regs[op->ra] <= static_cast<std::uint64_t>(op->immS)
                    ? 1 : 0);
        ADVANCE();
    HANDLER(Lui):
        SET_REG(op->rc, static_cast<std::uint64_t>(op->immS << 16));
        ADVANCE();

    HANDLER(Load): {
        const Addr ea = regs[op->ra] + static_cast<Addr>(op->immS);
        sink.data(ea, false);
        std::uint64_t v = mem_.read(ea, op->memSize);
        if (op->signedLoad)
            v = static_cast<std::uint64_t>(
                signExtend(v, op->memSize * 8u));
        SET_REG(op->rc, v);
        ADVANCE();
    }
    HANDLER(Store): {
        const Addr ea = regs[op->ra] + static_cast<Addr>(op->immS);
        const unsigned size = op->memSize;
        sink.data(ea, true);
        mem_.write(ea, regs[op->rb], size);
        if (ea < textEnd_ && ea + size > textBase_) {
            // Self-modifying code: the invalidation below may free
            // the very block being executed, so read everything we
            // still need from *op first, then leave the block. The
            // outer loop re-decodes from the patched image.
            const Addr next = op->pc + 4;
            noteCodeWrite(ea, size);
            ++instCount_;
            state_.pc = next;
            return;
        }
        ADVANCE();
    }

    HANDLER(Beq):
        BRANCH(S64(regs[op->ra]) == 0);
    HANDLER(Bne):
        BRANCH(S64(regs[op->ra]) != 0);
    HANDLER(Blt):
        BRANCH(S64(regs[op->ra]) < 0);
    HANDLER(Bge):
        BRANCH(S64(regs[op->ra]) >= 0);
    HANDLER(Ble):
        BRANCH(S64(regs[op->ra]) <= 0);
    HANDLER(Bgt):
        BRANCH(S64(regs[op->ra]) > 0);

    HANDLER(Br):
        CHAIN_OR_FINISH();
    HANDLER(Bsr):
        SET_REG(op->rc, op->pc + 4);
        CHAIN_OR_FINISH();
    HANDLER(Jsr): {
        // Read the jump target before the link write (ra may be rc).
        const Addr t = regs[op->ra] & ~Addr{3};
        SET_REG(op->rc, op->pc + 4);
        sink.control(op->pc, op->inst, true, t);
        FINISH(t, true);
    }
    HANDLER(Jmp): {
        const Addr t = regs[op->ra] & ~Addr{3};
        sink.control(op->pc, op->inst, true, t);
        FINISH(t, true);
    }

    HANDLER(Syscall): {
        // doSyscall's diagnostics (and nothing else) read state_.pc.
        state_.pc = op->pc;
        const std::uint64_t ret = doSyscall();
        SET_REG(RegV0, ret);
        if (done_) {
            state_.pc = op->pc + 4;
            ++instCount_;
            return;
        }
        ADVANCE();
    }

#if !RENO_COMPUTED_GOTO
        }
        panic("execDecoded: bad handler");
#endif

      block_done:
        state_.pc = npc;
        if (instCount_ >= limit)
            return;
        {
            // Block linking: follow the cached successor for this edge
            // when it is still the right one and is not due for
            // superblock promotion; otherwise take the slow path
            // (hash lookup + decode/promotion) and re-link.
            DecodedBlock *next =
                takenEdge ? blk->linkTaken : blk->linkFall;
            if (next != nullptr && next->entry == npc &&
                (next->isSuperblock || !next->chainable ||
                 next->execCount + 1 < opts_.hotThreshold)) {
                ++next->execCount;
                blk = next;
                continue;
            }
            const std::uint64_t gen = cache_.generation();
            next = lookupOrDecode(npc);
            if (next == nullptr)
                return;  // caller's step() fallback diagnoses this pc
            // A generation bump means blocks were freed (superblock
            // promotion) and blk may dangle -- skip re-linking then.
            if (cache_.generation() == gen)
                (takenEdge ? blk->linkTaken : blk->linkFall) = next;
            blk = next;
            continue;
        }

      pause:
        // Budget exhausted mid-block: park the architectural pc at the
        // next op and remember the position so run/step can resume
        // without a lookup.
        state_.pc = op->pc;
        curBlock_ = blk;
        curIdx_ = static_cast<std::size_t>(op - blk->ops.data());
        return;
    }

#undef HANDLER
#undef DISPATCH
#undef CHAIN_OR_FINISH
#undef BRANCH
#undef FINISH
#undef ADVANCE
#undef S64
#undef SET_REG
}

} // namespace reno
