/**
 * @file
 * ISA tests: opcode property table consistency and range check,
 * encode/decode round-tripping over every opcode (parameterized),
 * operand queries per format, RENO idiom predicates, and the
 * disassembler.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "isa/inst.hpp"
#include "isa/regs.hpp"

using namespace reno;

class AllOpcodes : public ::testing::TestWithParam<unsigned>
{
  protected:
    Opcode op() const { return static_cast<Opcode>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Isa, AllOpcodes, ::testing::Range(0u, NumOpcodeValues),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        return std::string(mnemonic(static_cast<Opcode>(info.param)));
    });

TEST_P(AllOpcodes, PropertyTableConsistent)
{
    const OpInfo &info = opInfo(op());
    EXPECT_FALSE(info.mnemonic.empty());
    EXPECT_GE(info.latency, 1u);
    if (info.cls == InstClass::Load || info.cls == InstClass::Store) {
        EXPECT_GT(info.memSize, 0u);
        EXPECT_EQ(info.fmt, InstFormat::Mem);
    } else {
        EXPECT_EQ(info.memSize, 0u);
    }
    if (info.cfCandidate) {
        // Only register-immediate additions fold.
        EXPECT_EQ(op(), Opcode::ADDI);
    }
    if (info.signedLoad)
        EXPECT_EQ(info.cls, InstClass::Load);
    // Multiplies and divides are multi-cycle.
    if (info.cls == InstClass::IntMul || info.cls == InstClass::IntDiv)
        EXPECT_GT(info.latency, 1u);
}

TEST(OpInfoTable, RejectsAnOpcodeOutsideTheTable)
{
    // The table read is inline; the range check must still panic
    // rather than read past the end.
    EXPECT_DEATH(opInfo(static_cast<Opcode>(NumOpcodeValues)),
                 "opInfo: bad opcode");
}

TEST_P(AllOpcodes, MnemonicRoundTrip)
{
    EXPECT_EQ(opcodeFromMnemonic(mnemonic(op())), op());
}

TEST_P(AllOpcodes, EncodeDecodeRoundTrip)
{
    Rng rng(GetParam() + 1);
    for (int trial = 0; trial < 32; ++trial) {
        const unsigned ra = static_cast<unsigned>(rng.below(NumLogRegs));
        const unsigned rb = static_cast<unsigned>(rng.below(NumLogRegs));
        const unsigned rc = static_cast<unsigned>(rng.below(NumLogRegs));
        const auto imm =
            static_cast<std::int32_t>(rng.range(-32768, 32767));

        Instruction inst;
        switch (opInfo(op()).fmt) {
          case InstFormat::R:
            inst = Instruction::rr(op(), rc, ra, rb);
            break;
          case InstFormat::I:
            inst = Instruction::ri(op(), rc, ra, imm);
            break;
          case InstFormat::Mem:
            inst = Instruction::mem(op(), rc, ra, imm);
            break;
          case InstFormat::Branch:
            inst = Instruction::branch(op(), ra, imm);
            break;
          case InstFormat::Jump:
            inst = Instruction::jump(op(), rc, ra, imm);
            break;
          case InstFormat::None:
            inst = Instruction::syscall();
            break;
        }
        EXPECT_EQ(decode(encode(inst)), inst)
            << disassemble(inst) << " failed to round-trip";
    }
}

TEST_P(AllOpcodes, DisassembleNonEmpty)
{
    Instruction inst;
    inst.op = op();
    EXPECT_FALSE(disassemble(inst, 0x1000).empty());
}

TEST(Inst, OperandQueriesRType)
{
    const Instruction i = Instruction::rr(Opcode::ADD, 3, 1, 2);
    EXPECT_EQ(i.numSrcs(), 2u);
    EXPECT_EQ(i.src(0), 1);
    EXPECT_EQ(i.src(1), 2);
    EXPECT_TRUE(i.hasDest());
    EXPECT_EQ(i.dest(), 3);
}

TEST(Inst, OperandQueriesIType)
{
    const Instruction i = Instruction::ri(Opcode::ADDI, 4, 7, 100);
    EXPECT_EQ(i.numSrcs(), 1u);
    EXPECT_EQ(i.src(0), 7);
    EXPECT_TRUE(i.hasDest());
    EXPECT_EQ(i.dest(), 4);
}

TEST(Inst, LuiHasNoSources)
{
    const Instruction i = Instruction::ri(Opcode::LUI, 4, RegZero, 16);
    EXPECT_EQ(i.numSrcs(), 0u);
    EXPECT_TRUE(i.hasDest());
}

TEST(Inst, LoadsAndStores)
{
    const Instruction ld = Instruction::mem(Opcode::LDQ, 5, 6, 16);
    EXPECT_EQ(ld.numSrcs(), 1u);
    EXPECT_EQ(ld.src(0), 6);
    EXPECT_TRUE(ld.hasDest());
    EXPECT_EQ(ld.dest(), 5);

    const Instruction st = Instruction::mem(Opcode::STQ, 5, 6, 16);
    EXPECT_EQ(st.numSrcs(), 2u);
    EXPECT_EQ(st.src(0), 6);  // base
    EXPECT_EQ(st.src(1), 5);  // data
    EXPECT_FALSE(st.hasDest());
}

TEST(Inst, BranchesHaveNoDest)
{
    const Instruction b = Instruction::branch(Opcode::BNE, 9, -4);
    EXPECT_EQ(b.numSrcs(), 1u);
    EXPECT_FALSE(b.hasDest());

    const Instruction br = Instruction::branch(Opcode::BR, RegZero, 8);
    EXPECT_EQ(br.numSrcs(), 0u);
    EXPECT_FALSE(br.hasDest());
}

TEST(Inst, CallWritesLink)
{
    const Instruction bsr =
        Instruction::jump(Opcode::BSR, RegRa, RegZero, 10);
    EXPECT_TRUE(bsr.hasDest());
    EXPECT_EQ(bsr.dest(), RegRa);
    EXPECT_EQ(bsr.numSrcs(), 0u);

    const Instruction jsr = Instruction::jump(Opcode::JSR, RegRa, 5, 0);
    EXPECT_TRUE(jsr.hasDest());
    EXPECT_EQ(jsr.numSrcs(), 1u);

    const Instruction jmp =
        Instruction::jump(Opcode::JMP, RegZero, RegRa, 0);
    EXPECT_FALSE(jmp.hasDest());
    EXPECT_EQ(jmp.numSrcs(), 1u);
}

TEST(Inst, SyscallReadsAndWritesConventionRegs)
{
    const Instruction sc = Instruction::syscall();
    EXPECT_EQ(sc.numSrcs(), 2u);
    EXPECT_EQ(sc.src(0), RegV0);
    EXPECT_EQ(sc.src(1), RegA0);
    EXPECT_TRUE(sc.hasDest());
    EXPECT_EQ(sc.dest(), RegV0);
}

TEST(Inst, ZeroDestMeansNoDest)
{
    const Instruction i = Instruction::rr(Opcode::ADD, RegZero, 1, 2);
    EXPECT_FALSE(i.hasDest());
    EXPECT_FALSE(Instruction::nop().hasDest());
}

TEST(Inst, MoveIdiom)
{
    const Instruction mov = Instruction::move(4, 5);
    EXPECT_TRUE(mov.isMove());
    EXPECT_TRUE(mov.isCfCandidate());
    EXPECT_EQ(mov.op, Opcode::ADDI);
    EXPECT_EQ(mov.imm, 0);

    const Instruction addi = Instruction::ri(Opcode::ADDI, 4, 5, 8);
    EXPECT_FALSE(addi.isMove());
    EXPECT_TRUE(addi.isCfCandidate());

    // A nop (dest = zero) is not worth folding.
    EXPECT_FALSE(Instruction::nop().isCfCandidate());

    // Non-addi immediates are not CF candidates.
    const Instruction ori = Instruction::ri(Opcode::ORI, 4, 5, 0);
    EXPECT_FALSE(ori.isMove());
    EXPECT_FALSE(ori.isCfCandidate());
}

TEST(Regs, NamesAndAliases)
{
    EXPECT_EQ(regName(0), "r0");
    EXPECT_EQ(regAbiName(0), "v0");
    EXPECT_EQ(regAbiName(RegSp), "sp");
    EXPECT_EQ(regAbiName(RegZero), "zero");
    EXPECT_EQ(regAbiName(RegRa), "ra");

    EXPECT_EQ(parseRegName("r17"), 17u);
    EXPECT_EQ(parseRegName("a1"), 17u);
    EXPECT_EQ(parseRegName("sp"), 30u);
    EXPECT_EQ(parseRegName("zero"), 31u);
    EXPECT_EQ(parseRegName("bogus"), NumLogRegs);
    EXPECT_EQ(parseRegName("r32"), NumLogRegs);
    EXPECT_EQ(parseRegName("r"), NumLogRegs);
}

TEST(Disasm, RendersIdioms)
{
    EXPECT_EQ(disassemble(Instruction::move(4, 5)), "mov t3, t4");
    EXPECT_EQ(disassemble(Instruction::rr(Opcode::ADD, 3, 1, 2)),
              "add t2, t0, t1");
    const Instruction ld = Instruction::mem(Opcode::LDQ, 1, 30, 8);
    EXPECT_EQ(disassemble(ld), "ldq t0, 8(sp)");
    // Branch targets resolve against the pc.
    const Instruction b = Instruction::branch(Opcode::BEQ, 1, 3);
    EXPECT_EQ(disassemble(b, 0x1000), "beq t0, 0x1010");
}
