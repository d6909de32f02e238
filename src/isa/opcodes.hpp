/**
 * @file
 * Opcode definitions for the RENO ISA: a 64-bit Alpha-like RISC.
 *
 * The properties RENO cares about are attached here:
 *  - register moves are register-immediate additions with immediate 0
 *    (ADDI rd, rs, 0), exactly as the paper assumes;
 *  - immediates are 16 bits, so RENO_CF displacements are 16 bits;
 *  - each opcode carries an execution class, a latency, and fusion
 *    attributes for RENO_CF timing (paper section 3.3).
 */
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace reno
{

/** Execution class; controls issue slot usage and base latency. */
enum class InstClass : std::uint8_t {
    IntAlu,     //!< single-cycle integer ALU operation
    IntMul,     //!< pipelined multiply
    IntDiv,     //!< unpipelined divide
    Load,       //!< memory load
    Store,      //!< memory store
    CtrlCond,   //!< conditional branch
    CtrlUncond, //!< unconditional direct jump
    CtrlCall,   //!< call (direct or indirect), writes the link register
    CtrlRet,    //!< indirect jump (return or computed jump)
    Syscall,    //!< system call; serializes the pipeline
};

/** Instruction encoding format. */
enum class InstFormat : std::uint8_t {
    R,       //!< op rc <- ra, rb
    I,       //!< op rc <- ra, imm16
    Mem,     //!< load rc <- imm16(ra) / store rb -> imm16(ra)
    Branch,  //!< op ra, imm16 (pc-relative, instruction units)
    Jump,    //!< op rc, (ra) indirect; or op imm16 direct
    None,    //!< no operands (syscall)
};

/**
 * Opcodes of the RENO ISA. MOV/NOP/LI/LA are assembler pseudo-ops that
 * expand to these (MOV rd,rs == ADDI rd,rs,0).
 */
enum class Opcode : std::uint8_t {
    // Register-register integer ALU.
    ADD, SUB, MUL, DIV, DIVU, REM,
    AND, OR, XOR, BIC,
    SLL, SRL, SRA,
    SEQ, SLT, SLE, SLTU, SLEU,
    // Register-immediate integer ALU (16-bit signed immediates).
    ADDI, MULI,
    ANDI, ORI, XORI,
    SLLI, SRLI, SRAI,
    SEQI, SLTI, SLEI, SLTUI, SLEUI,
    LUI,          //!< rc = imm16 << 16
    // Memory.
    LDQ, LDL, LDBU,
    STQ, STL, STB,
    // Control: conditional branches compare ra against zero.
    BEQ, BNE, BLT, BGE, BLE, BGT,
    BR,           //!< unconditional pc-relative branch
    BSR,          //!< direct call, rc = return address
    JSR,          //!< indirect call through ra, rc = return address
    JMP,          //!< indirect jump through ra (also used for RET)
    SYSCALL,
    NumOpcodes,
};

constexpr unsigned NumOpcodeValues =
    static_cast<unsigned>(Opcode::NumOpcodes);

/** Static properties of an opcode. */
struct OpInfo {
    std::string_view mnemonic;
    InstClass cls;
    InstFormat fmt;
    unsigned latency;   //!< execute latency in cycles (loads: agen only)
    unsigned memSize;   //!< access size in bytes for loads/stores, else 0
    bool signedLoad;    //!< sign-extend loaded value (LDL)
    /**
     * RENO_CF candidate: a register-immediate addition. Only these are
     * folded into map-table displacements (paper section 2.3). Includes
     * register moves since MOV == ADDI with immediate 0.
     */
    bool cfCandidate;
    /**
     * Fusion penalty class: true for general shifts, multiplies and
     * divides; a deferred displacement on an input of such an operation
     * costs one extra cycle (paper section 3.3). Add-like operations,
     * address generation, store data and branch direction paths absorb
     * the displacement for free via 3-input / extra 2-input adders.
     */
    bool fusePenalty;
};

namespace detail
{
/** The opcode property table, indexed by Opcode (opcodes.cpp). */
extern const std::array<OpInfo, NumOpcodeValues> opTable;
/** Out-of-line panic for an opcode outside the table. */
[[noreturn, gnu::cold]] void badOpcode(unsigned idx);
} // namespace detail

/** Properties of @p op: an inline table read; panics on a value
 *  outside the enumeration. */
inline const OpInfo &
opInfo(Opcode op)
{
    const auto idx = static_cast<unsigned>(op);
    if (idx >= NumOpcodeValues) [[unlikely]]
        detail::badOpcode(idx);
    return detail::opTable[idx];
}

/** Convenience accessors. */
inline bool isLoad(Opcode op) { return opInfo(op).cls == InstClass::Load; }
inline bool isStore(Opcode op) { return opInfo(op).cls == InstClass::Store; }

inline bool
isMemOp(Opcode op)
{
    return isLoad(op) || isStore(op);
}

inline bool
isControl(Opcode op)
{
    const InstClass c = opInfo(op).cls;
    return c == InstClass::CtrlCond || c == InstClass::CtrlUncond ||
           c == InstClass::CtrlCall || c == InstClass::CtrlRet;
}

inline bool
isCondBranch(Opcode op)
{
    return opInfo(op).cls == InstClass::CtrlCond;
}

inline bool
isCall(Opcode op)
{
    return opInfo(op).cls == InstClass::CtrlCall;
}

/** Mnemonic for an opcode. */
std::string_view mnemonic(Opcode op);

/** Look up an opcode by mnemonic; returns NumOpcodes if unknown. */
Opcode opcodeFromMnemonic(std::string_view name);

} // namespace reno
