#include "isa/assembler.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "isa/disasm.hh"

namespace amulet::isa
{

namespace
{

std::string
upper(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/// Split "DST, SRC" respecting brackets.
std::vector<std::string>
splitOperands(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (char c : s) {
        if (c == '[')
            ++depth;
        if (c == ']')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(trim(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!trim(cur).empty())
        out.push_back(trim(cur));
    return out;
}

/** All of unsigned token @p t (0x hex, 0b binary or decimal). */
std::uint64_t
parseMagnitude(const std::string &t, std::size_t line)
{
    const bool prefixed = t.size() > 2 && t[0] == '0';
    const int base = prefixed && (t[1] == 'x' || t[1] == 'X')   ? 16
                     : prefixed && (t[1] == 'b' || t[1] == 'B') ? 2
                                                                : 10;
    const char *end = t.data() + t.size();
    std::uint64_t v = 0;
    const auto [stop, ec] =
        std::from_chars(t.data() + (base == 10 ? 0 : 2), end, v, base);
    if (ec != std::errc{} || stop != end)
        throw AsmError(line, "bad immediate '" + t + "'");
    return v;
}

std::int64_t
parseImm(const std::string &tok, std::size_t line)
{
    std::string t = trim(tok);
    bool neg = false;
    if (!t.empty() && (t[0] == '-' || t[0] == '+')) {
        neg = t[0] == '-';
        t = t.substr(1);
    }
    if (t.empty())
        throw AsmError(line, "empty immediate");
    // Negated modulo 2^64, so -9223372036854775808 (how the disassembler
    // prints INT64_MIN) does not overflow.
    const std::uint64_t v = parseMagnitude(t, line);
    return static_cast<std::int64_t>(neg ? 0 - v : v);
}

struct ParsedOperand
{
    OpndKind kind = OpndKind::None;
    Reg reg = Reg::Rax;
    unsigned regWidth = 8;
    std::int64_t imm = 0;
    MemRef mem;
    unsigned memWidth = 8;
    bool isLabel = false;
    std::string label;
};

ParsedOperand
parseOperand(const std::string &tok, std::size_t line)
{
    ParsedOperand p;
    std::string t = trim(tok);
    if (t.empty())
        throw AsmError(line, "empty operand");

    if (t[0] == '.') {
        p.isLabel = true;
        p.label = t.substr(1);
        return p;
    }

    // Memory operand: "[...]" optionally preceded by "<size> ptr".
    std::string u = upper(t);
    unsigned width = 8;
    bool has_size = false;
    for (auto [kw, w] : {std::pair<const char *, unsigned>{"BYTE", 1},
                         {"WORD", 2},
                         {"DWORD", 4},
                         {"QWORD", 8}}) {
        const std::string prefix = std::string(kw) + " PTR";
        if (u.rfind(prefix, 0) == 0) {
            width = w;
            has_size = true;
            t = trim(t.substr(prefix.size()));
            u = upper(t);
            break;
        }
    }
    if (!t.empty() && t[0] == '[') {
        if (t.back() != ']')
            throw AsmError(line, "unterminated memory operand");
        p.kind = OpndKind::Mem;
        p.memWidth = width;
        std::string inner = t.substr(1, t.size() - 2);
        // Split on +/- at top level.
        std::vector<std::pair<char, std::string>> terms;
        char sign = '+';
        std::string cur;
        for (char c : inner) {
            if (c == '+' || c == '-') {
                if (!trim(cur).empty())
                    terms.emplace_back(sign, trim(cur));
                sign = c;
                cur.clear();
            } else {
                cur += c;
            }
        }
        if (!trim(cur).empty())
            terms.emplace_back(sign, trim(cur));
        bool have_base = false;
        for (auto &[sgn, term] : terms) {
            unsigned rw = 8;
            if (auto r = parseReg(term, &rw)) {
                if (sgn == '-')
                    throw AsmError(line, "negative register in address");
                if (!have_base) {
                    p.mem.base = *r;
                    have_base = true;
                } else if (!p.mem.hasIndex) {
                    p.mem.hasIndex = true;
                    p.mem.index = *r;
                } else {
                    throw AsmError(line, "too many address registers");
                }
            } else {
                // Every partial sum must fit the int32 displacement; a
                // term clamped to 2^32 leaves int32 from any start.
                const auto d = static_cast<std::int64_t>(
                    std::min<std::uint64_t>(parseMagnitude(term, line),
                                            std::uint64_t{1} << 32));
                const std::int64_t disp =
                    sgn == '-' ? p.mem.disp - d : p.mem.disp + d;
                if (disp < INT32_MIN || disp > INT32_MAX)
                    throw AsmError(line, "displacement out of range in '" +
                                             t + "'");
                p.mem.disp = static_cast<std::int32_t>(disp);
            }
        }
        if (!have_base)
            throw AsmError(line, "memory operand needs a base register");
        return p;
    }
    if (has_size)
        throw AsmError(line, "size keyword without memory operand");

    unsigned rw = 8;
    if (auto r = parseReg(t, &rw)) {
        p.kind = OpndKind::Reg;
        p.reg = *r;
        p.regWidth = rw;
        return p;
    }

    p.kind = OpndKind::Imm;
    p.imm = parseImm(t, line);
    return p;
}

/// Mnemonic table for ops without condition suffixes.
const std::map<std::string, Op> &
plainOps()
{
    static const std::map<std::string, Op> table = {
        {"NOP", Op::Nop},     {"HLT", Op::Halt},    {"HALT", Op::Halt},
        {"LFENCE", Op::Fence}, {"MFENCE", Op::Fence},
        {"MOV", Op::Mov},     {"MOVZX", Op::Movzx}, {"MOVSX", Op::Movsx},
        {"ADD", Op::Add},     {"SUB", Op::Sub},     {"AND", Op::And},
        {"OR", Op::Or},       {"XOR", Op::Xor},     {"IMUL", Op::Imul},
        {"SHL", Op::Shl},     {"SHR", Op::Shr},     {"SAR", Op::Sar},
        {"NEG", Op::Neg},     {"NOT", Op::Not},     {"CMP", Op::Cmp},
        {"TEST", Op::Test},   {"LEA", Op::Lea},     {"JMP", Op::Jmp},
        {"LOOPNE", Op::Loopne}, {"LOOPNZ", Op::Loopne},
    };
    return table;
}

} // namespace

Program
assemble(const std::string &text)
{
    Program prog;
    std::map<std::string, int> block_index;      // name -> index
    struct Fixup
    {
        std::size_t block;
        std::size_t inst;
        std::string label;
        std::size_t line;
    };
    std::vector<Fixup> fixups;

    std::istringstream in(text);
    std::string raw;
    std::size_t line_no = 0;

    auto current_block = [&prog]() -> BasicBlock & {
        if (prog.blocks.empty())
            prog.blocks.push_back({"bb_main.0", {}});
        return prog.blocks.back();
    };

    while (std::getline(in, raw)) {
        ++line_no;
        std::string line = raw;
        // Strip comments.
        for (char cc : {'#', ';'}) {
            auto pos = line.find(cc);
            if (pos != std::string::npos)
                line = line.substr(0, pos);
        }
        line = trim(line);
        if (line.empty())
            continue;

        // Label line: ".name:".
        if (line[0] == '.' && line.back() == ':') {
            std::string name = line.substr(1, line.size() - 2);
            if (name == "exit")
                throw AsmError(line_no, ".exit is reserved");
            if (block_index.count(name))
                throw AsmError(line_no, "duplicate label ." + name);
            block_index[name] = static_cast<int>(prog.blocks.size());
            prog.blocks.push_back({name, {}});
            continue;
        }

        // Mnemonic and operand text.
        std::string lock_less = line;
        bool lock = false;
        if (upper(line).rfind("LOCK ", 0) == 0) {
            lock = true;
            lock_less = trim(line.substr(5));
        }
        auto sp = lock_less.find_first_of(" \t");
        std::string mnem = upper(sp == std::string::npos
                                     ? lock_less
                                     : lock_less.substr(0, sp));
        std::string rest =
            sp == std::string::npos ? "" : trim(lock_less.substr(sp));

        Inst inst;
        inst.lockPrefix = lock;

        // Decode the op (with condition suffix for J/CMOV/SET).
        auto plain = plainOps().find(mnem);
        if (plain != plainOps().end()) {
            inst.op = plain->second;
        } else if (mnem.size() > 1 && mnem[0] == 'J') {
            auto cond = parseCond(mnem.substr(1));
            if (!cond)
                throw AsmError(line_no, "unknown mnemonic " + mnem);
            inst.op = Op::Jcc;
            inst.cond = *cond;
        } else if (mnem.rfind("CMOV", 0) == 0) {
            auto cond = parseCond(mnem.substr(4));
            if (!cond)
                throw AsmError(line_no, "unknown mnemonic " + mnem);
            inst.op = Op::Cmov;
            inst.cond = *cond;
        } else if (mnem.rfind("SET", 0) == 0) {
            auto cond = parseCond(mnem.substr(3));
            if (!cond)
                throw AsmError(line_no, "unknown mnemonic " + mnem);
            inst.op = Op::Set;
            inst.cond = *cond;
        } else {
            throw AsmError(line_no, "unknown mnemonic " + mnem);
        }

        auto operands = splitOperands(rest);

        // Branches take a single label operand.
        if (inst.isBranch()) {
            if (operands.size() != 1 || operands[0].empty() ||
                operands[0][0] != '.') {
                throw AsmError(line_no, "branch needs a .label operand");
            }
            std::string label = operands[0].substr(1);
            auto &bb = current_block();
            bb.body.push_back(inst);
            if (label == "exit") {
                bb.body.back().target = kTargetExit;
            } else {
                fixups.push_back({prog.blocks.size() - 1,
                                  bb.body.size() - 1, label, line_no});
            }
            continue;
        }

        std::vector<ParsedOperand> ops;
        for (const auto &o : operands)
            ops.push_back(parseOperand(o, line_no));

        const std::size_t expected =
            (inst.op == Op::Nop || inst.op == Op::Halt ||
             inst.op == Op::Fence)
                ? 0
                : (inst.op == Op::Neg || inst.op == Op::Not ||
                   inst.op == Op::Set)
                      ? 1
                      : 2;
        if (ops.size() != expected) {
            throw AsmError(line_no, "expected " + std::to_string(expected) +
                                        " operand(s) for " + mnem);
        }

        if (expected >= 1) {
            const ParsedOperand &d = ops[0];
            if (d.isLabel)
                throw AsmError(line_no, "unexpected label operand");
            inst.dstKind = d.kind;
            if (d.kind == OpndKind::Reg) {
                inst.dst = d.reg;
                inst.width = static_cast<std::uint8_t>(d.regWidth);
            } else if (d.kind == OpndKind::Mem) {
                inst.mem = d.mem;
                inst.width = static_cast<std::uint8_t>(d.memWidth);
            } else {
                throw AsmError(line_no, "immediate destination");
            }
        }
        if (expected == 2) {
            const ParsedOperand &s = ops[1];
            if (s.isLabel)
                throw AsmError(line_no, "unexpected label operand");
            inst.srcKind = s.kind;
            if (s.kind == OpndKind::Reg) {
                inst.src = s.reg;
                // MOVZX/MOVSX width describes the (register) source.
                if (inst.op == Op::Movzx || inst.op == Op::Movsx)
                    inst.width = static_cast<std::uint8_t>(s.regWidth);
            } else if (s.kind == OpndKind::Imm) {
                inst.imm = s.imm;
            } else {
                if (inst.dstKind == OpndKind::Mem)
                    throw AsmError(line_no, "mem-to-mem not supported");
                inst.mem = s.mem;
                // MOVZX/MOVSX: width describes the (memory) source.
                inst.width = static_cast<std::uint8_t>(s.memWidth);
            }
            if (inst.dstKind == OpndKind::Mem && s.kind == OpndKind::Reg &&
                inst.op != Op::Lea) {
                // Store width comes from the memory operand.
            }
        }
        if (inst.op == Op::Set)
            inst.width = 1;
        if (inst.op == Op::Lea && inst.srcKind != OpndKind::Mem)
            throw AsmError(line_no, "LEA needs a memory source");

        current_block().body.push_back(inst);
    }

    // Resolve label fixups.
    for (const auto &f : fixups) {
        auto it = block_index.find(f.label);
        if (it == block_index.end())
            throw AsmError(f.line, "undefined label ." + f.label);
        prog.blocks[f.block].body[f.inst].target = it->second;
    }

    if (auto err = prog.validate())
        throw AsmError(0, *err);
    return prog;
}

} // namespace amulet::isa
