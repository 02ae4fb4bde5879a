#include "executor/uarch_trace.hh"

#include <algorithm>
#include <sstream>

namespace amulet::executor
{

namespace
{

/// Section markers keep differently-shaped traces from colliding.
constexpr std::uint64_t kMarkL1d = 0xD1D1'0000'0000'0001ULL;
constexpr std::uint64_t kMarkTlb = 0xD1D1'0000'0000'0002ULL;
constexpr std::uint64_t kMarkL1i = 0xD1D1'0000'0000'0003ULL;

} // namespace

const char *
traceFormatName(TraceFormat format)
{
    switch (format) {
      case TraceFormat::L1dTlb:          return "L1D+TLB";
      case TraceFormat::L1dTlbL1i:       return "L1D+TLB+L1I";
      case TraceFormat::BpState:         return "BP state";
      case TraceFormat::MemAccessOrder:  return "Memory access order";
      case TraceFormat::BranchPredOrder: return "Branch prediction order";
    }
    return "?";
}

std::vector<TraceFormat>
allTraceFormats()
{
    return {TraceFormat::L1dTlb, TraceFormat::L1dTlbL1i,
            TraceFormat::BpState, TraceFormat::MemAccessOrder,
            TraceFormat::BranchPredOrder};
}

std::string
UTrace::describe(std::size_t max_words) const
{
    std::ostringstream os;
    os << traceFormatName(format) << " [" << words.size() << " words]:";
    std::size_t shown = 0;
    for (std::uint64_t w : words) {
        if (shown++ >= max_words) {
            os << " ...";
            break;
        }
        os << " 0x" << std::hex << w << std::dec;
    }
    return os.str();
}

UTrace
extractTrace(const uarch::Pipeline &pipe, TraceFormat format)
{
    UTrace trace;
    trace.format = format;
    const uarch::MemSystem &mem = pipe.memSys();

    switch (format) {
      case TraceFormat::L1dTlb:
      case TraceFormat::L1dTlbL1i: {
        const uarch::Cache &l1d = mem.l1d();
        const uarch::Cache &l1i = mem.l1i();
        const bool with_l1i = format == TraceFormat::L1dTlbL1i;
        trace.words.reserve(3 + l1d.numSets() * l1d.numWays() +
                            mem.dtlb().size() +
                            (with_l1i ? l1i.numSets() * l1i.numWays() : 0));
        trace.words.push_back(kMarkL1d);
        l1d.appendSnapshot(trace.words);
        trace.words.push_back(kMarkTlb);
        for (Addr vpn : mem.dtlb().snapshot())
            trace.words.push_back(vpn);
        if (with_l1i) {
            trace.words.push_back(kMarkL1i);
            l1i.appendSnapshot(trace.words);
        }
        break;
      }
      case TraceFormat::BpState: {
        auto &bp = const_cast<uarch::Pipeline &>(pipe).branchPredictor();
        trace.words = bp.traceWords();
        break;
      }
      case TraceFormat::MemAccessOrder:
        for (const auto &rec : pipe.accessOrder()) {
            trace.words.push_back(rec.pc);
            trace.words.push_back(rec.addr);
            trace.words.push_back(rec.isStore ? 1 : 0);
        }
        break;
      case TraceFormat::BranchPredOrder:
        for (const auto &rec : pipe.branchPredOrder()) {
            trace.words.push_back(rec.pc);
            trace.words.push_back(rec.predTargetPc);
        }
        break;
    }
    // Hash while the words are hot in cache: AnalyzeStage/ValidateStage
    // then reject unequal traces without touching the word arrays.
    trace.finalizeHash();
    return trace;
}

std::vector<Addr>
traceDiffAddrs(const UTrace &a, const UTrace &b)
{
    std::vector<std::uint64_t> wa = a.words;
    std::vector<std::uint64_t> wb = b.words;
    std::sort(wa.begin(), wa.end());
    std::sort(wb.begin(), wb.end());
    std::vector<Addr> diff;
    std::set_symmetric_difference(wa.begin(), wa.end(), wb.begin(),
                                  wb.end(), std::back_inserter(diff));
    return diff;
}

} // namespace amulet::executor
