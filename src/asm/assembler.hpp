/**
 * @file
 * Two-pass assembler for the RENO ISA.
 *
 * Supported syntax:
 *   - comments: '#' or ';' to end of line
 *   - labels:   `name:` (optionally followed by an instruction)
 *   - directives: .text .data .quad .word .byte .asciiz .align .space
 *   - registers: r0..r31 or Alpha ABI aliases (v0, t0.., a0.., sp, ...)
 *   - memory operands: `disp(base)`, e.g. `ldq t0, 8(sp)`
 *   - pseudo-instructions:
 *       mov rd, rs          -> addi rd, rs, 0
 *       nop                 -> addi zero, zero, 0
 *       li rd, imm          -> addi rd, zero, imm   (or lui+ori)
 *       la rd, label        -> lui rd, hi16; ori rd, rd, lo16
 *       subi rd, rs, imm    -> addi rd, rs, -imm
 *       call label          -> bsr ra, label
 *       ret                 -> jmp (ra)
 *       j label             -> br label
 *       beqz/bnez rs, label -> beq/bne rs, label
 *
 * Arithmetic/compare/memory/branch immediates are signed 16-bit;
 * logical immediates (andi/ori/xori) are zero-extended 16-bit.
 */
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "common/types.hpp"
#include "isa/inst.hpp"

namespace reno
{

/** Default load addresses for assembled programs. */
constexpr Addr DefaultTextBase = 0x1000;
constexpr Addr DefaultDataBase = 0x100000;
constexpr Addr DefaultStackTop = 0x7ff000;

/** Error raised on malformed assembly; carries the source line number. */
class AsmError : public std::runtime_error
{
  public:
    AsmError(unsigned line, const std::string &message);

    unsigned line() const { return line_; }

  private:
    unsigned line_;
};

/** An assembled, loadable program image. */
struct Program {
    Addr textBase = DefaultTextBase;
    std::vector<std::uint32_t> text;   //!< encoded instructions
    Addr dataBase = DefaultDataBase;
    std::vector<std::uint8_t> data;    //!< initialized data segment
    Addr entry = DefaultTextBase;      //!< `_start` if defined
    std::map<std::string, Addr> symbols;
    /** programDigest() memo (emu/emulator.hpp): the image must not
     *  change in place once its digest has been taken. */
    DigestMemo digest;

    /** Decoded instruction at @p pc; pc must be text-aligned. */
    Instruction instAt(Addr pc) const;

    /** True iff @p pc lies within the text segment. */
    bool
    inText(Addr pc) const
    {
        return pc >= textBase && pc < textBase + text.size() * 4 &&
               (pc & 3) == 0;
    }
};

/** Assemble @p source into a program image. Throws AsmError. */
Program assemble(const std::string &source);

} // namespace reno
