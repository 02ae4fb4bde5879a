#include "common/event_log.hh"

#include <sstream>

namespace amulet
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Fetch:            return "Fetch";
      case EventKind::Commit:           return "Commit";
      case EventKind::SquashBranch:     return "SquashBranch";
      case EventKind::SquashMemOrder:   return "SquashMemOrder";
      case EventKind::LoadExec:         return "LoadExec";
      case EventKind::LoadBypassedStore: return "LoadBypassedStore";
      case EventKind::StoreExec:        return "StoreExec";
      case EventKind::StoreCommit:      return "StoreCommit";
      case EventKind::TlbFill:          return "TlbFill";
      case EventKind::CacheFill:        return "CacheFill";
      case EventKind::CacheEvict:       return "CacheEvict";
      case EventKind::MshrStall:        return "MshrStall";
      case EventKind::QueueStall:       return "QueueStall";
      case EventKind::SpecBufferFill:   return "SpecBufferFill";
      case EventKind::SpecEviction:     return "SpecEviction";
      case EventKind::Expose:           return "Expose";
      case EventKind::ExposeStall:      return "ExposeStall";
      case EventKind::CleanupUndo:      return "CleanupUndo";
      case EventKind::CleanupSkipped:   return "CleanupSkipped";
      case EventKind::CleanupOverclean: return "CleanupOverclean";
      case EventKind::SplitRequest:     return "SplitRequest";
      case EventKind::TaintSet:         return "TaintSet";
      case EventKind::TaintLift:        return "TaintLift";
      case EventKind::TransmitBlocked:  return "TransmitBlocked";
      case EventKind::TaintedStoreTlb:  return "TaintedStoreTlb";
      case EventKind::LfbHold:          return "LfbHold";
      case EventKind::LfbUnsafeBypass:  return "LfbUnsafeBypass";
    }
    return "?";
}

std::string
Event::format() const
{
    std::ostringstream os;
    os << cycle << ": " << eventKindName(kind);
    if (seq)
        os << " seq=" << seq;
    if (pc)
        os << " pc=0x" << std::hex << pc << std::dec;
    if (addr)
        os << " addr=0x" << std::hex << addr << std::dec;
    if (!note.empty())
        os << " (" << note << ")";
    return os.str();
}

std::size_t
EventLog::countOf(EventKind kind) const
{
    std::size_t n = 0;
    for (const auto &e : events_) {
        if (e.kind == kind)
            ++n;
    }
    return n;
}

} // namespace amulet
