#include "core/root_cause.hh"

#include <algorithm>
#include <sstream>

namespace amulet::core
{

namespace
{

/** The event kinds the table shows. */
bool
isShown(EventKind kind)
{
    switch (kind) {
      case EventKind::LoadExec:
      case EventKind::LoadBypassedStore:
      case EventKind::StoreExec:
      case EventKind::SquashBranch:
      case EventKind::SquashMemOrder:
      case EventKind::SpecBufferFill:
      case EventKind::SpecEviction:
      case EventKind::Expose:
      case EventKind::ExposeStall:
      case EventKind::CleanupUndo:
      case EventKind::CleanupSkipped:
      case EventKind::CleanupOverclean:
      case EventKind::TaintedStoreTlb:
      case EventKind::TransmitBlocked:
      case EventKind::LfbHold:
      case EventKind::LfbUnsafeBypass:
        return true;
      default:
        return false;
    }
}

std::vector<std::string>
shownRows(const std::vector<Event> &events)
{
    std::vector<std::string> rows;
    for (const Event &e : events) {
        if (isShown(e.kind))
            rows.push_back(e.format());
    }
    return rows;
}

} // namespace

std::string
renderEventTable(const std::vector<Event> &eventsA,
                 const std::vector<Event> &eventsB)
{
    const std::vector<std::string> a = shownRows(eventsA);
    const std::vector<std::string> b = shownRows(eventsB);
    // Input A's column is padded to its longest row, at least 46
    // characters.
    std::size_t width = 46;
    for (const std::string &r : a)
        width = std::max(width, r.size());
    auto row = [width](std::string left, const std::string &right) {
        left.resize(width, ' ');
        return left + " | " + right + "\n";
    };
    std::string out = row("Input A", "Input B") + std::string(96, '-') + "\n";
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i)
        out += row(i < a.size() ? a[i] : "", i < b.size() ? b[i] : "");
    return out;
}

std::string
renderSideBySide(const ViolationRecord &violation,
                 const executor::SimHarness::PairOutput &replay)
{
    std::ostringstream os;
    os << violation.summary() << "\n\n"
       << renderEventTable(replay.eventsA, replay.eventsB) << "\nTrace diff:";
    for (Addr w : executor::traceDiffAddrs(violation.traceA,
                                           violation.traceB)) {
        os << " 0x" << std::hex << w << std::dec;
    }
    os << "\n";
    return os.str();
}

} // namespace amulet::core
