#include "isa/opcodes.hpp"

#include "common/log.hpp"

namespace reno
{

namespace detail
{

using IC = InstClass;
using IF = InstFormat;

// mnemonic, class, format, latency, memSize, signedLoad, cf, fusePenalty
const std::array<OpInfo, NumOpcodeValues> opTable = {{
    {"add",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sub",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"mul",    IC::IntMul, IF::R, 3, 0, false, false, true},
    {"div",    IC::IntDiv, IF::R, 20, 0, false, false, true},
    {"divu",   IC::IntDiv, IF::R, 20, 0, false, false, true},
    {"rem",    IC::IntDiv, IF::R, 20, 0, false, false, true},
    {"and",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"or",     IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"xor",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"bic",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sll",    IC::IntAlu, IF::R, 1, 0, false, false, true},
    {"srl",    IC::IntAlu, IF::R, 1, 0, false, false, true},
    {"sra",    IC::IntAlu, IF::R, 1, 0, false, false, true},
    {"seq",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"slt",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sle",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sltu",   IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sleu",   IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"addi",   IC::IntAlu, IF::I, 1, 0, false, true,  false},
    {"muli",   IC::IntMul, IF::I, 3, 0, false, false, true},
    {"andi",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"ori",    IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"xori",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"slli",   IC::IntAlu, IF::I, 1, 0, false, false, true},
    {"srli",   IC::IntAlu, IF::I, 1, 0, false, false, true},
    {"srai",   IC::IntAlu, IF::I, 1, 0, false, false, true},
    {"seqi",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"slti",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"slei",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"sltui",  IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"sleui",  IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"lui",    IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"ldq",    IC::Load,  IF::Mem, 1, 8, false, false, false},
    {"ldl",    IC::Load,  IF::Mem, 1, 4, true,  false, false},
    {"ldbu",   IC::Load,  IF::Mem, 1, 1, false, false, false},
    {"stq",    IC::Store, IF::Mem, 1, 8, false, false, false},
    {"stl",    IC::Store, IF::Mem, 1, 4, false, false, false},
    {"stb",    IC::Store, IF::Mem, 1, 1, false, false, false},
    {"beq",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"bne",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"blt",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"bge",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"ble",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"bgt",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"br",     IC::CtrlUncond, IF::Branch, 1, 0, false, false, false},
    {"bsr",    IC::CtrlCall,   IF::Jump,   1, 0, false, false, false},
    {"jsr",    IC::CtrlCall,   IF::Jump,   1, 0, false, false, false},
    {"jmp",    IC::CtrlRet,    IF::Jump,   1, 0, false, false, false},
    {"syscall", IC::Syscall,   IF::None,   1, 0, false, false, false},
}};

void
badOpcode(unsigned idx)
{
    panic("opInfo: bad opcode %u", idx);
}

} // namespace detail

std::string_view
mnemonic(Opcode op)
{
    return opInfo(op).mnemonic;
}

Opcode
opcodeFromMnemonic(std::string_view name)
{
    for (unsigned i = 0; i < NumOpcodeValues; ++i) {
        if (detail::opTable[i].mnemonic == name)
            return static_cast<Opcode>(i);
    }
    return Opcode::NumOpcodes;
}

} // namespace reno
