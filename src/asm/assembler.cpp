#include "asm/assembler.hpp"

#include <cctype>
#include <cstring>
#include <optional>
#include <string_view>

#include "common/log.hpp"
#include "isa/regs.hpp"

namespace reno
{

AsmError::AsmError(unsigned line, const std::string &message)
    : std::runtime_error(strprintf("line %u: %s", line, message.c_str())),
      line_(line)
{
}

Instruction
Program::instAt(Addr pc) const
{
    if (!inText(pc))
        panic("instAt: pc 0x%llx outside text",
              static_cast<unsigned long long>(pc));
    return decode(text[(pc - textBase) / 4]);
}

namespace
{

/** One operand token: register, immediate, symbol, or disp(base). */
struct Operand {
    enum class Kind { Reg, Imm, Sym, Mem } kind;
    unsigned reg = 0;        //!< Reg / Mem base
    std::int64_t imm = 0;    //!< Imm / Mem displacement
    std::string sym;         //!< Sym name (also Mem symbolic disp)
};

/** A parsed source statement: mnemonic plus operand list. */
struct Statement {
    unsigned line = 0;
    std::string mnemonic;
    std::vector<Operand> operands;
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '$';
}

/** Split a source line into label / mnemonic / raw operand strings. */
struct Line {
    std::vector<std::string> labels;
    std::string mnemonic;
    std::vector<std::string> args;
};

std::string
trim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

Line
splitLine(std::string_view raw, unsigned lineno)
{
    Line out;
    std::string s(raw);
    // Strip comments, respecting string literals for .asciiz.
    bool in_str = false;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '"' && (i == 0 || s[i - 1] != '\\'))
            in_str = !in_str;
        else if (!in_str && (s[i] == '#' || s[i] == ';')) {
            s.resize(i);
            break;
        }
    }
    s = trim(s);

    // Peel off leading labels.
    while (true) {
        size_t i = 0;
        while (i < s.size() && isIdentChar(s[i]))
            ++i;
        if (i > 0 && i < s.size() && s[i] == ':') {
            out.labels.push_back(s.substr(0, i));
            s = trim(s.substr(i + 1));
        } else {
            break;
        }
    }
    if (s.empty())
        return out;

    // Mnemonic up to first whitespace.
    size_t i = 0;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    out.mnemonic = s.substr(0, i);
    s = trim(s.substr(i));

    // Operands: comma-separated, except inside quotes.
    if (!s.empty()) {
        std::string cur;
        bool quoted = false;
        for (char c : s) {
            if (c == '"')
                quoted = !quoted;
            if (c == ',' && !quoted) {
                out.args.push_back(trim(cur));
                cur.clear();
            } else {
                cur += c;
            }
        }
        out.args.push_back(trim(cur));
        for (const auto &a : out.args) {
            if (a.empty())
                throw AsmError(lineno, "empty operand");
        }
    }
    return out;
}

std::optional<std::int64_t>
parseInt(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    size_t pos = 0;
    bool neg = false;
    if (s[pos] == '-' || s[pos] == '+') {
        neg = s[pos] == '-';
        ++pos;
    }
    if (pos >= s.size())
        return std::nullopt;
    int base = 10;
    if (s.size() - pos > 2 && s[pos] == '0' &&
        (s[pos + 1] == 'x' || s[pos + 1] == 'X')) {
        base = 16;
        pos += 2;
    }
    std::int64_t value = 0;
    for (; pos < s.size(); ++pos) {
        const char c = s[pos];
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            return std::nullopt;
        value = value * base + digit;
    }
    return neg ? -value : value;
}

Operand
parseOperand(const std::string &s, unsigned lineno)
{
    Operand op;
    // disp(base) memory operand?
    const size_t paren = s.find('(');
    if (paren != std::string::npos && s.back() == ')') {
        const std::string disp = trim(s.substr(0, paren));
        const std::string base =
            trim(s.substr(paren + 1, s.size() - paren - 2));
        const unsigned breg = parseRegName(base);
        if (breg >= NumLogRegs)
            throw AsmError(lineno, "bad base register '" + base + "'");
        op.kind = Operand::Kind::Mem;
        op.reg = breg;
        if (disp.empty()) {
            op.imm = 0;
        } else if (auto v = parseInt(disp)) {
            op.imm = *v;
        } else {
            op.sym = disp;
        }
        return op;
    }
    const unsigned reg = parseRegName(s);
    if (reg < NumLogRegs) {
        op.kind = Operand::Kind::Reg;
        op.reg = reg;
        return op;
    }
    if (auto v = parseInt(s)) {
        op.kind = Operand::Kind::Imm;
        op.imm = *v;
        return op;
    }
    if (!s.empty() && (std::isalpha(static_cast<unsigned char>(s[0])) ||
                       s[0] == '_' || s[0] == '.')) {
        op.kind = Operand::Kind::Sym;
        op.sym = s;
        return op;
    }
    throw AsmError(lineno, "cannot parse operand '" + s + "'");
}

/** Assembler working state shared between the two passes. */
class Assembler
{
  public:
    explicit Assembler(const std::string &source)
    {
        size_t start = 0;
        unsigned lineno = 1;
        while (start <= source.size()) {
            size_t end = source.find('\n', start);
            if (end == std::string::npos)
                end = source.size();
            lines_.emplace_back(
                lineno, std::string_view(source).substr(start, end - start));
            start = end + 1;
            ++lineno;
        }
    }

    Program
    run()
    {
        pass1();
        pass2();
        if (auto it = prog_.symbols.find("_start");
            it != prog_.symbols.end()) {
            prog_.entry = it->second;
        } else {
            prog_.entry = prog_.textBase;
        }
        return prog_;
    }

  private:
    enum class Segment { Text, Data };

    // --- Pass 1: compute label addresses -----------------------------
    void
    pass1()
    {
        Segment seg = Segment::Text;
        Addr text_pc = prog_.textBase;
        Addr data_pc = prog_.dataBase;
        parsed_.reserve(lines_.size());
        for (const auto &[lineno, raw] : lines_) {
            parsed_.emplace_back(lineno, splitLine(raw, lineno));
            const Line &line = parsed_.back().second;
            for (const auto &label : line.labels) {
                const Addr addr = seg == Segment::Text ? text_pc : data_pc;
                if (!prog_.symbols.emplace(label, addr).second)
                    throw AsmError(lineno, "duplicate label '" + label + "'");
            }
            if (line.mnemonic.empty())
                continue;
            if (line.mnemonic[0] == '.') {
                directiveSize(line, lineno, seg, data_pc);
                continue;
            }
            if (seg != Segment::Text)
                throw AsmError(lineno, "instruction outside .text");
            text_pc += 4 * instSize(line, lineno);
        }
    }

    /** Number of machine instructions a (pseudo-)instruction expands to. */
    unsigned
    instSize(const Line &line, unsigned lineno)
    {
        if (line.mnemonic == "li") {
            if (line.args.size() != 2)
                throw AsmError(lineno, "li needs 2 operands");
            const auto v = parseInt(line.args[1]);
            if (!v)
                throw AsmError(lineno, "li needs a numeric immediate");
            return fitsSigned(*v, 16) ? 1 : 2;
        }
        if (line.mnemonic == "la")
            return 2;
        return 1;
    }

    /** Pass-1 handling of directives: advance segment cursors. */
    void
    directiveSize(const Line &line, unsigned lineno, Segment &seg,
                  Addr &data_pc)
    {
        const std::string &d = line.mnemonic;
        if (d == ".text") {
            seg = Segment::Text;
        } else if (d == ".data") {
            seg = Segment::Data;
        } else if (d == ".globl" || d == ".global") {
            // accepted and ignored
        } else if (d == ".quad") {
            requireData(seg, lineno, d);
            data_pc += 8 * line.args.size();
        } else if (d == ".word") {
            requireData(seg, lineno, d);
            data_pc += 4 * line.args.size();
        } else if (d == ".byte") {
            requireData(seg, lineno, d);
            data_pc += line.args.size();
        } else if (d == ".space") {
            requireData(seg, lineno, d);
            const auto v = parseInt(line.args.at(0));
            if (!v || *v < 0)
                throw AsmError(lineno, ".space needs a size");
            data_pc += static_cast<Addr>(*v);
        } else if (d == ".align") {
            requireData(seg, lineno, d);
            const auto v = parseInt(line.args.at(0));
            if (!v || *v < 0 || *v > 12)
                throw AsmError(lineno, ".align needs a power 0..12");
            const Addr align = Addr{1} << *v;
            data_pc = (data_pc + align - 1) & ~(align - 1);
        } else if (d == ".asciiz") {
            requireData(seg, lineno, d);
            data_pc += stringLiteral(line.args.at(0), lineno).size() + 1;
        } else {
            throw AsmError(lineno, "unknown directive '" + d + "'");
        }
    }

    void
    requireData(Segment seg, unsigned lineno, const std::string &d)
    {
        if (seg != Segment::Data)
            throw AsmError(lineno, d + " only allowed in .data");
    }

    static std::string
    stringLiteral(const std::string &s, unsigned lineno)
    {
        if (s.size() < 2 || s.front() != '"' || s.back() != '"')
            throw AsmError(lineno, "expected string literal");
        std::string out;
        for (size_t i = 1; i + 1 < s.size(); ++i) {
            char c = s[i];
            if (c == '\\' && i + 2 < s.size()) {
                ++i;
                switch (s[i]) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case '0': c = '\0'; break;
                  case '\\': c = '\\'; break;
                  case '"': c = '"'; break;
                  default:
                    throw AsmError(lineno, "bad escape in string");
                }
            }
            out += c;
        }
        return out;
    }

    // --- Pass 2: emit code and data from pass 1's split lines --------
    void
    pass2()
    {
        Segment seg = Segment::Text;
        for (const auto &[lineno, line] : parsed_) {
            if (line.mnemonic.empty())
                continue;
            if (line.mnemonic[0] == '.') {
                emitDirective(line, lineno, seg);
                continue;
            }
            emitInst(line, lineno);
        }
    }

    Addr
    resolve(const std::string &sym, unsigned lineno) const
    {
        auto it = prog_.symbols.find(sym);
        if (it == prog_.symbols.end())
            throw AsmError(lineno, "undefined symbol '" + sym + "'");
        return it->second;
    }

    void
    emitDirective(const Line &line, unsigned lineno, Segment &seg)
    {
        const std::string &d = line.mnemonic;
        auto emit_bytes = [&](std::uint64_t v, unsigned n) {
            for (unsigned i = 0; i < n; ++i)
                prog_.data.push_back(
                    static_cast<std::uint8_t>(v >> (8 * i)));
        };
        if (d == ".text") {
            seg = Segment::Text;
        } else if (d == ".data") {
            seg = Segment::Data;
        } else if (d == ".globl" || d == ".global") {
        } else if (d == ".quad" || d == ".word" || d == ".byte") {
            const unsigned n = d == ".quad" ? 8 : d == ".word" ? 4 : 1;
            for (const auto &arg : line.args) {
                std::int64_t v;
                if (auto num = parseInt(arg))
                    v = *num;
                else
                    v = static_cast<std::int64_t>(resolve(arg, lineno));
                emit_bytes(static_cast<std::uint64_t>(v), n);
            }
        } else if (d == ".space") {
            const auto v = parseInt(line.args.at(0));
            prog_.data.insert(prog_.data.end(),
                              static_cast<size_t>(*v), 0);
        } else if (d == ".align") {
            const Addr align = Addr{1} << *parseInt(line.args.at(0));
            while ((prog_.dataBase + prog_.data.size()) & (align - 1))
                prog_.data.push_back(0);
        } else if (d == ".asciiz") {
            const std::string s = stringLiteral(line.args.at(0), lineno);
            for (char c : s)
                prog_.data.push_back(static_cast<std::uint8_t>(c));
            prog_.data.push_back(0);
        }
    }

    Addr
    curPc() const
    {
        return prog_.textBase + prog_.text.size() * 4;
    }

    void
    emit(const Instruction &inst)
    {
        prog_.text.push_back(encode(inst));
    }

    /** Branch displacement from the *next* emitted pc to @p target. */
    std::int32_t
    branchDisp(Addr target, unsigned lineno) const
    {
        const std::int64_t delta =
            (static_cast<std::int64_t>(target) -
             static_cast<std::int64_t>(curPc()) - 4) / 4;
        if (!fitsSigned(delta, 16))
            throw AsmError(lineno, "branch target out of range");
        return static_cast<std::int32_t>(delta);
    }

    std::vector<Operand>
    parseOperands(const Line &line, unsigned lineno)
    {
        std::vector<Operand> ops;
        ops.reserve(line.args.size());
        for (const auto &a : line.args)
            ops.push_back(parseOperand(a, lineno));
        return ops;
    }

    void
    expect(bool ok, unsigned lineno, const char *what)
    {
        if (!ok)
            throw AsmError(lineno, what);
    }

    std::int32_t
    checkImm16(std::int64_t v, unsigned lineno, bool zero_extended = false)
    {
        if (zero_extended) {
            if (v < 0 || v > 0xffff)
                throw AsmError(lineno, "immediate outside [0, 65535]");
            // Stored sign-extended in the decoded form; semantics mask.
            return static_cast<std::int32_t>(signExtend(
                static_cast<std::uint64_t>(v), 16));
        }
        if (!fitsSigned(v, 16))
            throw AsmError(lineno, "immediate does not fit in 16 bits");
        return static_cast<std::int32_t>(v);
    }

    void
    emitInst(const Line &line, unsigned lineno)
    {
        const std::string &m = line.mnemonic;
        std::vector<Operand> ops = parseOperands(line, lineno);
        using K = Operand::Kind;

        // ---- pseudo-instructions ------------------------------------
        if (m == "nop") {
            expect(ops.empty(), lineno, "nop takes no operands");
            emit(Instruction::nop());
            return;
        }
        if (m == "mov") {
            expect(ops.size() == 2 && ops[0].kind == K::Reg &&
                   ops[1].kind == K::Reg, lineno, "mov rd, rs");
            emit(Instruction::move(ops[0].reg, ops[1].reg));
            return;
        }
        if (m == "li") {
            expect(ops.size() == 2 && ops[0].kind == K::Reg &&
                   ops[1].kind == K::Imm, lineno, "li rd, imm");
            const std::int64_t v = ops[1].imm;
            if (fitsSigned(v, 16)) {
                emit(Instruction::ri(Opcode::ADDI, ops[0].reg, RegZero,
                                     static_cast<std::int32_t>(v)));
            } else if (v >= 0 && v <= 0xffffffffLL) {
                emit(Instruction::ri(Opcode::LUI, ops[0].reg, RegZero,
                                     static_cast<std::int32_t>(
                                         signExtend(v >> 16, 16))));
                emit(Instruction::ri(Opcode::ORI, ops[0].reg, ops[0].reg,
                                     static_cast<std::int32_t>(
                                         signExtend(v & 0xffff, 16))));
            } else {
                throw AsmError(lineno, "li immediate out of range");
            }
            return;
        }
        if (m == "la") {
            expect(ops.size() == 2 && ops[0].kind == K::Reg &&
                   ops[1].kind == K::Sym, lineno, "la rd, label");
            const Addr a = resolve(ops[1].sym, lineno);
            if (a > 0xffffffffULL)
                throw AsmError(lineno, "la address out of range");
            emit(Instruction::ri(Opcode::LUI, ops[0].reg, RegZero,
                                 static_cast<std::int32_t>(
                                     signExtend(a >> 16, 16))));
            emit(Instruction::ri(Opcode::ORI, ops[0].reg, ops[0].reg,
                                 static_cast<std::int32_t>(
                                     signExtend(a & 0xffff, 16))));
            return;
        }
        if (m == "subi") {
            expect(ops.size() == 3 && ops[0].kind == K::Reg &&
                   ops[1].kind == K::Reg && ops[2].kind == K::Imm,
                   lineno, "subi rd, rs, imm");
            emit(Instruction::ri(Opcode::ADDI, ops[0].reg, ops[1].reg,
                                 checkImm16(-ops[2].imm, lineno)));
            return;
        }
        if (m == "call") {
            expect(ops.size() == 1 && ops[0].kind == K::Sym, lineno,
                   "call label");
            const Addr target = resolve(ops[0].sym, lineno);
            emit(Instruction::jump(Opcode::BSR, RegRa, RegZero,
                                   branchDisp(target, lineno)));
            return;
        }
        if (m == "ret") {
            expect(ops.empty(), lineno, "ret takes no operands");
            emit(Instruction::jump(Opcode::JMP, RegZero, RegRa, 0));
            return;
        }
        if (m == "j") {
            expect(ops.size() == 1 && ops[0].kind == K::Sym, lineno,
                   "j label");
            emit(Instruction::branch(Opcode::BR, RegZero,
                                     branchDisp(resolve(ops[0].sym, lineno),
                                                lineno)));
            return;
        }
        if (m == "beqz" || m == "bnez") {
            expect(ops.size() == 2 && ops[0].kind == K::Reg &&
                   ops[1].kind == K::Sym, lineno, "beqz rs, label");
            emit(Instruction::branch(
                m == "beqz" ? Opcode::BEQ : Opcode::BNE, ops[0].reg,
                branchDisp(resolve(ops[1].sym, lineno), lineno)));
            return;
        }

        // ---- real opcodes -------------------------------------------
        const Opcode op = opcodeFromMnemonic(m);
        if (op == Opcode::NumOpcodes)
            throw AsmError(lineno, "unknown mnemonic '" + m + "'");
        const OpInfo &info = opInfo(op);

        switch (info.fmt) {
          case InstFormat::R:
            expect(ops.size() == 3 && ops[0].kind == K::Reg &&
                   ops[1].kind == K::Reg && ops[2].kind == K::Reg,
                   lineno, "expected: op rd, ra, rb");
            emit(Instruction::rr(op, ops[0].reg, ops[1].reg, ops[2].reg));
            return;
          case InstFormat::I: {
            if (op == Opcode::LUI) {
                expect(ops.size() == 2 && ops[0].kind == K::Reg &&
                       ops[1].kind == K::Imm, lineno, "lui rd, imm");
                emit(Instruction::ri(op, ops[0].reg, RegZero,
                                     checkImm16(ops[1].imm, lineno)));
                return;
            }
            expect(ops.size() == 3 && ops[0].kind == K::Reg &&
                   ops[1].kind == K::Reg && ops[2].kind == K::Imm,
                   lineno, "expected: op rd, ra, imm");
            const bool zext = op == Opcode::ANDI || op == Opcode::ORI ||
                              op == Opcode::XORI;
            emit(Instruction::ri(op, ops[0].reg, ops[1].reg,
                                 checkImm16(ops[2].imm, lineno, zext)));
            return;
          }
          case InstFormat::Mem:
            expect(ops.size() == 2 && ops[0].kind == K::Reg &&
                   ops[1].kind == K::Mem, lineno,
                   "expected: op reg, disp(base)");
            expect(ops[1].sym.empty(), lineno,
                   "symbolic memory displacements not supported");
            emit(Instruction::mem(op, ops[0].reg, ops[1].reg,
                                  checkImm16(ops[1].imm, lineno)));
            return;
          case InstFormat::Branch: {
            if (op == Opcode::BR) {
                expect(ops.size() == 1 && ops[0].kind == K::Sym, lineno,
                       "br label");
                emit(Instruction::branch(op, RegZero,
                                         branchDisp(resolve(ops[0].sym,
                                                            lineno),
                                                    lineno)));
                return;
            }
            expect(ops.size() == 2 && ops[0].kind == K::Reg &&
                   ops[1].kind == K::Sym, lineno, "expected: bxx rs, label");
            emit(Instruction::branch(op, ops[0].reg,
                                     branchDisp(resolve(ops[1].sym, lineno),
                                                lineno)));
            return;
          }
          case InstFormat::Jump:
            if (op == Opcode::BSR) {
                expect(ops.size() == 2 && ops[0].kind == K::Reg &&
                       ops[1].kind == K::Sym, lineno, "bsr rd, label");
                emit(Instruction::jump(op, ops[0].reg, RegZero,
                                       branchDisp(resolve(ops[1].sym,
                                                          lineno),
                                                  lineno)));
                return;
            }
            if (op == Opcode::JSR) {
                expect(ops.size() == 2 && ops[0].kind == K::Reg &&
                       ops[1].kind == K::Mem && ops[1].imm == 0 &&
                       ops[1].sym.empty(),
                       lineno, "jsr rd, (rs)");
                emit(Instruction::jump(op, ops[0].reg, ops[1].reg, 0));
                return;
            }
            // JMP (rs)
            expect(ops.size() == 1 && ops[0].kind == K::Mem &&
                   ops[0].imm == 0 && ops[0].sym.empty(), lineno,
                   "jmp (rs)");
            emit(Instruction::jump(op, RegZero, ops[0].reg, 0));
            return;
          case InstFormat::None:
            expect(ops.empty(), lineno, "no operands expected");
            emit(Instruction::syscall());
            return;
        }
        throw AsmError(lineno, "unhandled instruction format");
    }

    /** Source lines, viewing the source, which outlives the run. */
    std::vector<std::pair<unsigned, std::string_view>> lines_;
    /** Every source line split once, by pass 1, for pass 2. */
    std::vector<std::pair<unsigned, Line>> parsed_;
    Program prog_;
};

} // namespace

Program
assemble(const std::string &source)
{
    return Assembler(source).run();
}

} // namespace reno
