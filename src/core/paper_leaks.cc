#include "core/paper_leaks.hh"

#include <cctype>
#include <utility>

#include "core/campaign.hh"
#include "core/signature.hh"
#include "isa/assembler.hh"

namespace amulet::core
{

namespace
{

/** Loads [R14 + @p offset] into @p reg, then squares it @p imuls times:
 *  a slow chain that delays whatever waits on @p reg. */
std::string
slowChain(const char *reg, int imuls, int offset = 0)
{
    std::string s = "    MOV " + std::string(reg) + ", qword ptr [R14 + " +
                    std::to_string(offset) + "]\n";
    for (int i = 0; i < imuls; ++i)
        s += "    IMUL " + std::string(reg) + ", " + std::string(reg) +
             "\n";
    return s;
}

/** Architectural work after the gadget, so the test outlives its
 *  in-flight fills. */
std::string
trailingWork(int imuls = 40)
{
    std::string s = "    MOV R11, qword ptr [R14 + 8]\n";
    for (int i = 0; i < imuls; ++i)
        s += "    IMUL R11, R11\n";
    return s;
}

/** The Spectre-v1 window: @p body sits on the fall-through of a branch
 *  whose flags wait on a slow chain. The branch is taken and predicted
 *  fall-through, so @p body runs only speculatively. */
std::string
branchShadow(const char *body)
{
    return ".bb_main.0:\n" + slowChain("RAX", 8) +
           "    TEST RAX, RAX\n"
           "    JNE .bb_main.1\n" +
           body +
           "    JMP .bb_main.1\n"
           ".bb_main.1:\n" +
           trailingWork();
}

/** KV1/KV2 (Table 10): eight architecturally warmed lines, eight
 *  speculative loads that hit them (one input) or miss (the other), then
 *  eight architectural loads that HALT waits for. The misses' delay (or
 *  their rollback) moves the end of the test, and with it how far
 *  runahead fetch reaches into the L1I. */
std::string
ifetchTiming()
{
    std::string text = ".bb_main.0:\n";
    for (int i = 0; i < 8; ++i)
        text += "    MOV R9, qword ptr [R14 + " +
                std::to_string(0x400 + 64 * i) + "]\n";
    text += slowChain("RAX", 8);
    text += "    TEST RAX, RAX\n"
            "    JNE .bb_main.1\n";
    for (int i = 0; i < 8; ++i)
        text += "    AND RBX, 0b111111111111\n"
                "    MOV RDX, qword ptr [R14 + RBX + " +
                std::to_string(64 * i) + "]\n";
    text += "    JMP .bb_main.1\n"
            ".bb_main.1:\n";
    for (int i = 0; i < 8; ++i)
        text += "    MOV R10, qword ptr [R14 + " +
                std::to_string(0x800 + 64 * i) + "]\n";
    return text + trailingWork(8);
}

/** Zero registers and sandbox, except the words the slow chains load. */
arch::Input
zeroInput(unsigned pages)
{
    mem::AddressMap map;
    map.sandboxPages = pages;
    arch::Input input;
    input.sandbox.assign(map.sandboxSize(), 0);
    input.sandbox.set(0, 3);
    input.sandbox.set(8, 7);
    input.sandbox.set(16, 5);
    return input;
}

/** @p listing with input A = @p base and input B its copy, id 1. */
LeakGadget
makeGadget(const char *name, const std::string &listing, unsigned pages,
           const arch::Input &base)
{
    isa::Program program = isa::assemble(listing);
    const isa::FlatProgram flat(program, mem::AddressMap{}.codeBase);
    arch::Input b = base;
    b.id = 1;
    return {name, std::move(program), flat, pages, base, std::move(b)};
}

/** Inputs that differ only in RBX, a register the architectural path
 *  never reads: @p a vs @p b. */
LeakGadget
regSecret(const char *name, const std::string &listing, RegVal a,
          RegVal b)
{
    LeakGadget g = makeGadget(name, listing, 1, zeroInput(1));
    g.inputA.regs[isa::regIndex(isa::Reg::Rbx)] = a;
    g.inputB.regs[isa::regIndex(isa::Reg::Rbx)] = b;
    return g;
}

/** Inputs that differ only in the sandbox byte at @p offset, 0x01 vs
 *  0x07, so the secret word it belongs to selects lines (or pages) far
 *  apart. RCX = 0x200 points the access loads at the secret. */
LeakGadget
memSecret(const char *name, const std::string &listing, Addr offset,
          unsigned pages = 1)
{
    arch::Input base = zeroInput(pages);
    base.regs[isa::regIndex(isa::Reg::Rcx)] = 0x200;
    LeakGadget g = makeGadget(name, listing, pages, base);
    g.inputA.sandbox.set(offset, 0x01);
    g.inputB.sandbox.set(offset, 0x07);
    return g;
}

/** The ground-truth matrix over @p c's gadgets. */
std::vector<LeakRow>
groundTruth(const PaperLeaks &c)
{
    using K = defense::DefenseKind;
    using executor::TraceFormat;
    return {
        {.gadget = &c.v1Mem, .defense = K::Baseline,
         .signature = sig::kSpectreV1},
        {.gadget = &c.v1Mem, .defense = K::InvisiSpec,
         .signature = sig::kUv1SpecEviction},
        {.gadget = &c.v1Mem, .defense = K::InvisiSpec, .patched = true},
        // CleanupSpec rolls the loads back, STT delays the tainted
        // transmitter, and SpecLFB's UV6 frees only the first
        // speculative load, not this transmitter.
        {.gadget = &c.v1Mem, .defense = K::CleanupSpec},
        {.gadget = &c.v1Mem, .defense = K::Stt},
        {.gadget = &c.v1Mem, .defense = K::SpecLfb},
        {.gadget = &c.v1Reg, .defense = K::Baseline,
         .signature = sig::kSpectreV1},
        {.gadget = &c.v1Reg, .defense = K::SpecLfb,
         .signature = sig::kUv6FirstLoadBypass},
        {.gadget = &c.v1Reg, .defense = K::SpecLfb, .patched = true},
        {.gadget = &c.uv1, .defense = K::InvisiSpec,
         .signature = sig::kUv1SpecEviction},
        {.gadget = &c.uv1, .defense = K::InvisiSpec, .patched = true},
        {.gadget = &c.v4, .defense = K::Baseline,
         .signature = sig::kSpectreV4},
        // UV2 shows only with the paper's Table 6 amplification.
        {.gadget = &c.uv2, .defense = K::InvisiSpec, .patched = true},
        {.gadget = &c.uv2, .defense = K::InvisiSpec, .patched = true,
         .l1dMshrs = 2, .signature = sig::kUv2MshrInterference},
        {.gadget = &c.uv3, .defense = K::CleanupSpec,
         .signature = sig::kUv3StoreNotCleaned},
        {.gadget = &c.uv3, .defense = K::CleanupSpec, .patched = true},
        {.gadget = &c.uv4, .defense = K::CleanupSpec,
         .signature = sig::kUv4SplitNotCleaned},
        {.gadget = &c.uv4, .defense = K::CleanupSpec, .patched = true},
        {.gadget = &c.uv5, .defense = K::CleanupSpec,
         .signature = sig::kUv5Overclean},
        {.gadget = &c.uv5, .defense = K::CleanupSpec, .patched = true},
        {.gadget = &c.kv3, .defense = K::Stt,
         .signature = sig::kKv3TaintedStoreTlb},
        {.gadget = &c.kv3, .defense = K::Stt, .patched = true},
        // KV1 and KV2 leak through the L1I even when patched; the
        // default observer sees nothing. KV1 needs enough MSHR pressure
        // for the speculative misses to delay the architectural loads,
        // and a ROB long enough that fetch is still live at HALT.
        {.gadget = &c.kv12, .defense = K::InvisiSpec, .patched = true,
         .l1dMshrs = 8, .robSize = 256},
        {.gadget = &c.kv12, .defense = K::InvisiSpec, .patched = true,
         .l1dMshrs = 8, .robSize = 256, .observer = TraceFormat::L1dTlbL1i,
         .signature = sig::kKv12InstFetch},
        {.gadget = &c.kv12, .defense = K::CleanupSpec, .patched = true},
        {.gadget = &c.kv12, .defense = K::CleanupSpec, .patched = true,
         .observer = TraceFormat::L1dTlbL1i,
         .signature = sig::kKv12InstFetch},
    };
}

} // namespace

PaperLeaks::PaperLeaks()
    // Spectre-v1 with a memory secret: the access load reads the
    // secret, the transmitter encodes it in a line.
    : v1Mem(memSecret("v1_mem", branchShadow(R"(
    AND RCX, 0b111111111111
    MOV RBX, qword ptr [R14 + RCX]
    AND RBX, 0b111110000000
    MOV RDX, qword ptr [R14 + RBX]
)"), 0x201)),
      // Spectre-v1 with a register secret and one speculative load
      // (Figure 8(b)).
      v1Reg(regSecret("v1_reg", branchShadow(R"(
    AND RBX, 0b111110000000
    MOV RDX, qword ptr [R14 + RBX]
)"), 0x080, 0x780)),
      // Figure 4: the speculative load's set is full, so the buggy
      // InvisiSpec evicts a conflict-fill victim.
      uv1(regSecret("uv1_fig4", branchShadow(R"(
    AND RBX, 0b111110000000
    XOR RDX, RDX
    MOV RDX, qword ptr [R14 + RBX]
)"), 0x100, 0x700)),
      // Spectre-v4: the load bypasses the older store, whose address
      // resolves late, reads the stale secret and encodes it.
      v4(memSecret("v4", ".bb_main.0:\n" + slowChain("RAX", 6) + R"(
    AND RAX, 0
    OR RAX, 64
    MOV qword ptr [R14 + RAX], RDI
    MOV RBX, qword ptr [R14 + 64]
    AND RBX, 0b111110000000
    MOV RDX, qword ptr [R14 + RBX]
)" + trailingWork(),
                   0x41)),
      // UV2 (Figure 6): a non-speculative load (NSL) of [R14 + 0x200]
      // becomes safe while two speculative loads contend with its
      // Expose for MSHRs. Input A points them at cold lines, which take
      // fresh MSHRs; input B at line 0, which the slow chain's load
      // already requested, so they coalesce. With 2 MSHRs, input A's
      // loads hold both and the Expose is cut off by the end of the
      // test.
      uv2(regSecret("uv2_mshr", ".bb_main.0:\n" + slowChain("R13", 2) + R"(
    TEST R13, R13
    JE .bb_main.1
    MOV R10, qword ptr [R14 + 0x200]
    IMUL R13, R13
    IMUL R13, R13
    IMUL R13, R13
    IMUL R13, R13
    TEST R13, R13
    JNE .bb_main.1
    AND RBX, 0b111111111111
    MOV RDX, qword ptr [R14 + RBX + 0]
    AND RBX, 0b111111111111
    MOV RDX, qword ptr [R14 + RBX + 64]
    JMP .bb_main.1
.bb_main.1:
    IMUL R11, R11
    IMUL R11, R11
    IMUL R11, R11
    IMUL R11, R11
    IMUL R11, R11
    IMUL R11, R11
)",
                    0xa00, 0x000)),
      // UV3: the secret lands in a speculative store's address.
      uv3(memSecret("uv3_store", branchShadow(R"(
    AND RCX, 0b111111111111
    MOV RBX, qword ptr [R14 + RCX]
    AND RBX, 0b111110000000
    MOV dword ptr [R14 + RBX], EDI
)"), 0x201)),
      // UV4: the transmitter crosses a line boundary (8 bytes at 60).
      uv4(memSecret("uv4_split", branchShadow(R"(
    AND RCX, 0b111111111111
    MOV RBX, qword ptr [R14 + RCX]
    AND RBX, 0b111110000000
    MOV RDX, qword ptr [R14 + RBX + 60]
)"), 0x201)),
      // UV5 (Table 9): the NSL's address resolves late but before the
      // squash; the speculative load (SL) aliases its line (input A) or
      // not (input B), and rollback erases what the NSL installed.
      uv5(regSecret("uv5_overclean",
                    ".bb_main.0:\n" + slowChain("RAX", 1) + R"(
    AND RAX, 0
    MOV R10, qword ptr [R14 + RAX + 0x140]
)" + slowChain("R12", 6, 16) + R"(
    TEST R12, R12
    JNE .bb_main.1
    AND RBX, 0b111111000000
    MOV RDX, qword ptr [R14 + RBX]
    JMP .bb_main.1
.bb_main.1:
)" + trailingWork(),
                    0x140, 0x680)),
      // KV3 (Figure 9): a tainted speculative store still translates its
      // page-granular address.
      kv3(memSecret("kv3_store_tlb", branchShadow(R"(
    AND RCX, 0b111111111111
    MOV RBX, qword ptr [R14 + RCX]
    AND RBX, 0b1111111000000000000
    MOV dword ptr [R14 + RBX], EDI
)"), 0x202, 128)),
      // KV1 and KV2: warm (input A) vs cold (input B) speculative lines.
      kv12(regSecret("kv12_ifetch", ifetchTiming(), 0x400, 0xa00)),
      rows(groundTruth(*this))
{}

executor::HarnessConfig
LeakRow::harness() const
{
    executor::HarnessConfig cfg = paperHarness(defense, patched);
    cfg.map.sandboxPages = gadget->sandboxPages;
    cfg.traceFormat = observer;
    cfg.bootInsts = 2000;
    if (l1dMshrs)
        cfg.core.l1dMshrs = l1dMshrs;
    if (robSize)
        cfg.core.robSize = robSize;
    return cfg;
}

std::string
LeakRow::name() const
{
    std::string out =
        gadget->name + "_" + defense::defenseKindName(defense);
    if (patched)
        out += "_patched";
    if (l1dMshrs)
        out += "_mshrs" + std::to_string(l1dMshrs);
    if (robSize)
        out += "_rob" + std::to_string(robSize);
    if (observer != executor::TraceFormat::L1dTlb) {
        out += '_';
        for (const char *p = executor::traceFormatName(observer); *p; ++p)
            out += std::isalnum(static_cast<unsigned char>(*p)) ? *p : '_';
    }
    return out;
}

std::vector<const LeakRow *>
PaperLeaks::rowsOf(const LeakGadget &g, defense::DefenseKind kind) const
{
    std::vector<const LeakRow *> out;
    for (const LeakRow &row : rows) {
        if (row.gadget == &g && row.defense == kind)
            out.push_back(&row);
    }
    return out;
}

const PaperLeaks &
paperLeaks()
{
    static const PaperLeaks catalog;
    return catalog;
}

LeakRun
runPair(const LeakRow &row)
{
    executor::SimHarness harness(row.harness());
    const executor::UarchContext boot = harness.saveContext();
    return harness.replayPair(row.gadget->flat, row.gadget->inputA, boot,
                              row.gadget->inputB, boot, /*logEvents=*/true);
}

} // namespace amulet::core
