/**
 * @file
 * Unit tests for the ISA layer: registers, flags, instruction
 * classification, program flattening, assembler/disassembler round-trip,
 * and value-level semantics.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/generator.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "isa/flags.hh"
#include "isa/inst.hh"
#include "isa/program.hh"
#include "isa/reg.hh"
#include "isa/semantics.hh"

namespace
{

using namespace amulet;
using namespace amulet::isa;

TEST(Reg, NamesRoundTrip)
{
    for (unsigned i = 0; i < kNumRegs; ++i) {
        const Reg r = regFromIndex(i);
        for (unsigned w : {8u, 4u, 2u, 1u}) {
            unsigned parsed_width = 0;
            auto parsed = parseReg(regNameWidth(r, w), &parsed_width);
            ASSERT_TRUE(parsed.has_value())
                << "failed for " << regNameWidth(r, w);
            EXPECT_EQ(*parsed, r);
            EXPECT_EQ(parsed_width, w);
        }
    }
}

TEST(Reg, ParseIsCaseInsensitive)
{
    EXPECT_EQ(parseReg("rax"), Reg::Rax);
    EXPECT_EQ(parseReg("r14"), Reg::R14);
    EXPECT_EQ(parseReg("eAx"), Reg::Rax);
    EXPECT_FALSE(parseReg("rzz").has_value());
}

TEST(Flags, PackUnpackRoundTrip)
{
    for (unsigned b = 0; b < 32; ++b) {
        Flags f = Flags::unpack(static_cast<std::uint8_t>(b));
        EXPECT_EQ(f.pack(), b);
    }
}

TEST(Flags, CondAliases)
{
    EXPECT_EQ(parseCond("Z"), Cond::E);
    EXPECT_EQ(parseCond("A"), Cond::NBE);
    EXPECT_EQ(parseCond("ae"), Cond::NB);
    EXPECT_EQ(parseCond("NLE"), Cond::G);
    EXPECT_FALSE(parseCond("XX").has_value());
}

TEST(Flags, CondEvalSignedComparisons)
{
    Flags f;
    // 3 - 5: sf=1, of=0 -> L true, G false.
    f.sf = true;
    f.of = false;
    EXPECT_TRUE(condEval(Cond::L, f));
    EXPECT_FALSE(condEval(Cond::G, f));
    EXPECT_FALSE(condEval(Cond::GE, f));
    EXPECT_TRUE(condEval(Cond::LE, f));
}

TEST(Inst, ClassificationLoadStoreRmw)
{
    Inst load;
    load.op = Op::Mov;
    load.dstKind = OpndKind::Reg;
    load.dst = Reg::Rax;
    load.srcKind = OpndKind::Mem;
    EXPECT_TRUE(load.isLoad());
    EXPECT_FALSE(load.isStore());
    EXPECT_FALSE(load.isRmw());

    Inst store;
    store.op = Op::Mov;
    store.dstKind = OpndKind::Mem;
    store.srcKind = OpndKind::Reg;
    EXPECT_FALSE(store.isLoad());
    EXPECT_TRUE(store.isStore());
    EXPECT_FALSE(store.isRmw());

    Inst rmw;
    rmw.op = Op::Xor;
    rmw.dstKind = OpndKind::Mem;
    rmw.srcKind = OpndKind::Reg;
    EXPECT_TRUE(rmw.isLoad());
    EXPECT_TRUE(rmw.isStore());
    EXPECT_TRUE(rmw.isRmw());

    Inst lea;
    lea.op = Op::Lea;
    lea.dstKind = OpndKind::Reg;
    lea.srcKind = OpndKind::Mem;
    EXPECT_FALSE(lea.isLoad());
    EXPECT_FALSE(lea.isStore());
}

TEST(Inst, RegsReadWritten)
{
    Inst add; // ADD RAX, RBX
    add.op = Op::Add;
    add.dstKind = OpndKind::Reg;
    add.dst = Reg::Rax;
    add.srcKind = OpndKind::Reg;
    add.src = Reg::Rbx;
    auto reads = add.regsRead();
    EXPECT_NE(std::find(reads.begin(), reads.end(), Reg::Rax), reads.end());
    EXPECT_NE(std::find(reads.begin(), reads.end(), Reg::Rbx), reads.end());
    auto writes = add.regsWritten();
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0], Reg::Rax);

    Inst store; // MOV [R14 + RBX], RDI
    store.op = Op::Mov;
    store.dstKind = OpndKind::Mem;
    store.mem.base = Reg::R14;
    store.mem.hasIndex = true;
    store.mem.index = Reg::Rbx;
    store.srcKind = OpndKind::Reg;
    store.src = Reg::Rdi;
    reads = store.regsRead();
    EXPECT_EQ(reads.size(), 3u); // RDI, R14, RBX
    EXPECT_TRUE(store.regsWritten().empty());

    Inst loopne;
    loopne.op = Op::Loopne;
    loopne.target = 1;
    reads = loopne.regsRead();
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0], Reg::Rcx);
    writes = loopne.regsWritten();
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0], Reg::Rcx);
}

TEST(Program, ValidateRejectsBackwardBranches)
{
    Program p;
    p.blocks.push_back({"a", {}});
    p.blocks.push_back({"b", {}});
    Inst j;
    j.op = Op::Jmp;
    j.target = 0; // backward
    p.blocks[1].body.push_back(j);
    EXPECT_TRUE(p.validate().has_value());

    p.blocks[1].body[0].target = kTargetExit;
    EXPECT_FALSE(p.validate().has_value());
}

TEST(Program, FlattenResolvesTargetsAndAppendsHalt)
{
    Program p;
    p.blocks.push_back({"main", {}});
    p.blocks.push_back({"next", {}});
    Inst j;
    j.op = Op::Jcc;
    j.cond = Cond::NE;
    j.target = 1;
    Inst nop;
    nop.op = Op::Nop;
    p.blocks[0].body = {nop, j};
    p.blocks[1].body = {nop};

    FlatProgram fp(p, 0x400000);
    ASSERT_EQ(fp.numInsts(), 4u); // nop, jcc, nop, halt
    EXPECT_EQ(fp.inst(3).op, Op::Halt);
    EXPECT_EQ(fp.targetIdx(1), 2u);
    EXPECT_EQ(fp.pcOf(0), 0x400000u);
    EXPECT_EQ(fp.pcOf(1), 0x400004u);
    EXPECT_EQ(fp.idxOf(0x400008), 2u);
    EXPECT_FALSE(fp.idxOf(0x400002).has_value()); // unaligned
    EXPECT_FALSE(fp.idxOf(0x3ffffc).has_value()); // out of range
}

TEST(Assembler, PaperListingRoundTrips)
{
    const char *text = R"(
.bb_main.2:
    OR byte ptr [R14 + RDX], AL
    LOOPNE .bb_main.3
    JMP .exit
.bb_main.3:
    AND BL, 34
    AND RAX, 0b111111111111
    CMOVNBE SI, word ptr [R14 + RAX]
    AND RBX, 0b111111111111
    XOR qword ptr [R14 + RBX], RDI
)";
    Program p = assemble(text);
    ASSERT_EQ(p.blocks.size(), 2u);
    EXPECT_EQ(p.blocks[0].body.size(), 3u);
    EXPECT_EQ(p.blocks[1].body.size(), 5u);

    const Inst &rmw = p.blocks[0].body[0];
    EXPECT_EQ(rmw.op, Op::Or);
    EXPECT_TRUE(rmw.isRmw());
    EXPECT_EQ(rmw.width, 1u);
    EXPECT_EQ(rmw.mem.base, Reg::R14);
    EXPECT_TRUE(rmw.mem.hasIndex);
    EXPECT_EQ(rmw.mem.index, Reg::Rdx);
    EXPECT_EQ(rmw.src, Reg::Rax);

    const Inst &mask = p.blocks[1].body[1];
    EXPECT_EQ(mask.op, Op::And);
    EXPECT_EQ(mask.imm, 0xfff);

    const Inst &cmov = p.blocks[1].body[2];
    EXPECT_EQ(cmov.op, Op::Cmov);
    EXPECT_EQ(cmov.cond, Cond::NBE);
    EXPECT_EQ(cmov.width, 2u);
    EXPECT_TRUE(cmov.isLoad());

    // Round-trip: reassembling the disassembly gives the same program.
    Program p2 = assemble(formatProgram(p));
    ASSERT_EQ(p2.blocks.size(), p.blocks.size());
    for (std::size_t b = 0; b < p.blocks.size(); ++b) {
        ASSERT_EQ(p2.blocks[b].body.size(), p.blocks[b].body.size());
        for (std::size_t i = 0; i < p.blocks[b].body.size(); ++i)
            EXPECT_EQ(p2.blocks[b].body[i], p.blocks[b].body[i])
                << "block " << b << " inst " << i;
    }
}

// The corpus stores programs as disassembly and reparses them through
// the assembler on load (src/corpus/serde.cc), so every opcode the
// generator can emit must survive the disasm → asm round trip exactly.
// Two generator configurations: the defaults, and one with the rare
// instruction classes (fences, SETcc, CMOV loads, LOOPNE, unaligned
// offsets) amplified so they are certain to appear within the sample.
TEST(Assembler, GeneratorProgramsRoundTrip)
{
    auto round_trip_many = [](const core::GeneratorConfig &cfg,
                              std::uint64_t seed, int count) {
        amulet::Rng rng(seed);
        for (int i = 0; i < count; ++i) {
            core::ProgramGenerator gen(cfg, rng.split());
            const Program p = gen.generate();
            ASSERT_FALSE(p.validate().has_value());
            const std::string text = formatProgram(p);
            Program q;
            ASSERT_NO_THROW(q = assemble(text)) << text;
            ASSERT_EQ(q.blocks.size(), p.blocks.size()) << text;
            for (std::size_t b = 0; b < p.blocks.size(); ++b) {
                ASSERT_EQ(q.blocks[b].body.size(), p.blocks[b].body.size())
                    << text;
                for (std::size_t k = 0; k < p.blocks[b].body.size(); ++k) {
                    EXPECT_EQ(q.blocks[b].body[k], p.blocks[b].body[k])
                        << "program " << i << " block " << b << " inst "
                        << k << "\n" << text;
                }
            }
        }
    };

    core::GeneratorConfig defaults;
    round_trip_many(defaults, 1234, 50);

    core::GeneratorConfig rare;
    rare.fencePct = 25;
    rare.setccPct = 25;
    rare.cmovLoadPct = 80;
    rare.rmwPct = 50;
    rare.loopnePct = 60;
    rare.unalignedPct = 80;
    round_trip_many(rare, 5678, 50);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    EXPECT_THROW(assemble("FROB RAX, RBX"), AsmError);
    EXPECT_THROW(assemble("MOV RAX"), AsmError);
    EXPECT_THROW(assemble("JMP nowhere"), AsmError);
    EXPECT_THROW(assemble("JMP .undefined_label"), AsmError);
    EXPECT_THROW(assemble("MOV [R14], [R14]"), AsmError);
    // A number is a whole token, and a displacement must fit int32 after
    // every term.
    for (const char *bad :
         {"MOV RAX, 12abc", "MOV RAX, 0x1zz", "MOV RAX, --5", "MOV RAX, 5 6",
          "MOV RAX, qword ptr [R14 + 0x100000000]",
          "MOV RAX, qword ptr [R14 + 0x7fffffff + 1]"}) {
        EXPECT_THROW(assemble(bad), AsmError) << bad;
    }
    // The extremes the disassembler prints still assemble.
    const Program extremes = assemble("MOV RAX, -9223372036854775808\n"
                                      "MOV RAX, qword ptr [R14 - 0x80000000]");
    EXPECT_EQ(extremes.blocks[0].body[0].imm, INT64_MIN);
    EXPECT_EQ(extremes.blocks[0].body[1].mem.disp, INT32_MIN);
    try {
        assemble("NOP\nBADOP\n");
        FAIL() << "expected AsmError";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.line(), 2u);
    }
}

TEST(Assembler, LockPrefixAndStoreForms)
{
    Program p = assemble("LOCK AND dword ptr [R14 + RCX], EDI\n"
                         "MOV dword ptr [R14 + RAX], EBX\n");
    const Inst &locked = p.blocks[0].body[0];
    EXPECT_TRUE(locked.lockPrefix);
    EXPECT_EQ(locked.width, 4u);
    EXPECT_TRUE(locked.isRmw());
    const Inst &store = p.blocks[0].body[1];
    EXPECT_TRUE(store.isStore());
    EXPECT_FALSE(store.isLoad());
}

TEST(Semantics, WidthMerge)
{
    EXPECT_EQ(mergeWidth(0x1122334455667788, 0xaabbccdd99aabbcc, 8),
              0xaabbccdd99aabbccULL);
    // 32-bit writes zero-extend.
    EXPECT_EQ(mergeWidth(0x1122334455667788, 0xdeadbeef, 4),
              0xdeadbeefULL);
    // 16/8-bit writes merge.
    EXPECT_EQ(mergeWidth(0x1122334455667788, 0xbeef, 2),
              0x112233445566beefULL);
    EXPECT_EQ(mergeWidth(0x1122334455667788, 0xef, 1),
              0x11223344556677efULL);
}

TEST(Semantics, AddSubFlags)
{
    Inst add;
    add.op = Op::Add;
    add.width = 8;
    Flags f;
    auto r = evalOp(add, 5, 7, 0, f);
    EXPECT_EQ(r.value, 12u);
    EXPECT_FALSE(r.flags.zf);
    EXPECT_FALSE(r.flags.cf);

    // Unsigned overflow sets CF.
    r = evalOp(add, ~0ULL, 1, 0, f);
    EXPECT_EQ(r.value, 0u);
    EXPECT_TRUE(r.flags.zf);
    EXPECT_TRUE(r.flags.cf);

    Inst sub;
    sub.op = Op::Sub;
    sub.width = 8;
    r = evalOp(sub, 3, 5, 0, f);
    EXPECT_EQ(r.value, static_cast<std::uint64_t>(-2));
    EXPECT_TRUE(r.flags.cf);
    EXPECT_TRUE(r.flags.sf);

    // Signed overflow: INT64_MIN - 1.
    r = evalOp(sub, 0x8000000000000000ULL, 1, 0, f);
    EXPECT_TRUE(r.flags.of);
}

TEST(Semantics, CmpDoesNotWriteDst)
{
    Inst cmp;
    cmp.op = Op::Cmp;
    cmp.width = 8;
    Flags f;
    auto r = evalOp(cmp, 5, 5, 0, f);
    EXPECT_FALSE(r.writesDst);
    EXPECT_TRUE(r.writesFlags);
    EXPECT_TRUE(r.flags.zf);
}

TEST(Semantics, LogicOpsClearCfOf)
{
    Flags f;
    f.cf = true;
    f.of = true;
    Inst andi;
    andi.op = Op::And;
    andi.width = 8;
    auto r = evalOp(andi, 0xf0, 0x0f, 0, f);
    EXPECT_EQ(r.value, 0u);
    EXPECT_TRUE(r.flags.zf);
    EXPECT_FALSE(r.flags.cf);
    EXPECT_FALSE(r.flags.of);
}

TEST(Semantics, ShiftsAndWidthTruncation)
{
    Flags f;
    Inst shl;
    shl.op = Op::Shl;
    shl.width = 4;
    auto r = evalOp(shl, 0x80000000, 1, 0, f);
    EXPECT_EQ(r.value, 0u); // bit shifted out of 32-bit lane
    EXPECT_TRUE(r.flags.cf);
    EXPECT_TRUE(r.flags.zf);

    Inst sar;
    sar.op = Op::Sar;
    sar.width = 8;
    r = evalOp(sar, static_cast<std::uint64_t>(-8), 1, 0, f);
    EXPECT_EQ(static_cast<std::int64_t>(r.value), -4);
}

TEST(Semantics, ImulOverflowFlag)
{
    Flags f;
    Inst imul;
    imul.op = Op::Imul;
    imul.width = 8;
    auto r = evalOp(imul, 3, 4, 0, f);
    EXPECT_EQ(r.value, 12u);
    EXPECT_FALSE(r.flags.cf);

    r = evalOp(imul, 0x4000000000000000ULL, 4, 0, f);
    EXPECT_TRUE(r.flags.cf);
    EXPECT_TRUE(r.flags.of);
}

TEST(Semantics, CmovSelectsPerCondition)
{
    Flags f;
    f.zf = true;
    Inst cmov;
    cmov.op = Op::Cmov;
    cmov.cond = Cond::E;
    cmov.width = 8;
    auto r = evalOp(cmov, 111, 222, 0, f);
    EXPECT_EQ(r.value, 222u);
    f.zf = false;
    r = evalOp(cmov, 111, 222, 0, f);
    EXPECT_EQ(r.value, 111u);
}

TEST(Semantics, MovzxMovsx)
{
    Flags f;
    Inst movzx;
    movzx.op = Op::Movzx;
    movzx.width = 1;
    auto r = evalOp(movzx, 0xffffffffffffffff, 0x80, 0, f);
    EXPECT_EQ(r.value, 0x80u);

    Inst movsx;
    movsx.op = Op::Movsx;
    movsx.width = 1;
    r = evalOp(movsx, 0, 0x80, 0, f);
    EXPECT_EQ(r.value, 0xffffffffffffff80ULL);
}

TEST(Disasm, FormatsBinaryMasksLikeThePaper)
{
    Inst mask;
    mask.op = Op::And;
    mask.dstKind = OpndKind::Reg;
    mask.dst = Reg::Rbx;
    mask.srcKind = OpndKind::Imm;
    mask.imm = 0xfff;
    mask.width = 8;
    EXPECT_EQ(formatInst(mask), "AND RBX, 0b111111111111");
}

} // namespace
