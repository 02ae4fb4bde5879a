#include "runtime/fault.hh"

#include <charconv>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace amulet::runtime::fault
{

namespace
{

// The armed plan. Guarded by installation discipline, not a lock: the
// scheduler installs before shard threads start and uninstalls after
// they join, so reader threads only ever see a stable pointer.
std::unique_ptr<FaultPlan> g_plan;

/// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
hashSite(std::uint64_t seed, const std::string &site)
{
    std::uint64_t h = seed ^ 0xcbf29ce484222325ULL; // FNV offset basis
    for (const char c : site)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

const char *const kRateSites[] = {
    "wire.crash",   "wire.garble",        "wire.drop",
    "shard.throw",  "journal.shortwrite", "checkpoint.fail",
};

bool
isRateSite(const std::string &name)
{
    for (const char *site : kRateSites)
        if (name == site)
            return true;
    return false;
}

std::vector<std::string>
splitAny(const std::string &text, const char *seps)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : text) {
        bool is_sep = false;
        for (const char *s = seps; *s; ++s)
            is_sep |= (c == *s);
        if (is_sep) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else if (c != ' ' && c != '\t') {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** All of @p text as a decimal T (a sign, a stray character or a value
 *  that does not fit T is malformed). */
template <class T>
T
parseNumber(const std::string &text, const std::string &what)
{
    T value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || stop != end)
        throw std::runtime_error("fault plan: bad number for " + what +
                                 ": '" + text + "'");
    return value;
}

struct Tls
{
    bool active = false;
    unsigned program = 0;
    unsigned attempt = 0;
    std::uint32_t ops = 0;
};

thread_local Tls t_scope;

} // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &pair : splitAny(spec, ";,")) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::runtime_error("fault plan: expected key=value, got '" +
                                     pair + "'");
        const std::string key = pair.substr(0, eq);
        const std::string value = pair.substr(eq + 1);
        if (key == "seed") {
            plan.seed_ = parseNumber<std::uint64_t>(value, key);
        } else if (key == "poison") {
            for (const std::string &p : splitAny(value, ":"))
                plan.poison_.insert(parseNumber<unsigned>(p, "poison index"));
        } else if (key == "journal.once") {
            plan.journalOnce_ = parseNumber<std::uint64_t>(value, key);
        } else if (isRateSite(key)) {
            const unsigned rate = parseNumber<unsigned>(value, key);
            if (rate > 1000)
                throw std::runtime_error("fault plan: rate for " + key +
                                         " must be 0..1000 per mille");
            plan.rates_[key] = rate;
        } else {
            throw std::runtime_error("fault plan: unknown site '" + key +
                                     "'");
        }
    }
    return plan;
}

void
FaultPlan::install(const std::string &spec)
{
    g_plan = std::make_unique<FaultPlan>(parse(spec));
}

void
FaultPlan::uninstall()
{
    g_plan.reset();
}

const FaultPlan *
FaultPlan::active()
{
    return g_plan.get();
}

unsigned
FaultPlan::rate(const std::string &site) const
{
    const auto it = rates_.find(site);
    return it == rates_.end() ? 0u : it->second;
}

bool
FaultPlan::fires(const char *site, std::uint64_t key) const
{
    if (key == ProgramScope::kUnscopedKey)
        return false;
    const unsigned r = rate(site);
    if (r == 0)
        return false;
    // A retry must be able to succeed: past a program's first attempt
    // only checkpoint.fail, which counts occurrences, fires.
    if (ProgramScope::currentAttempt() > 0 &&
        std::strcmp(site, "checkpoint.fail") != 0)
        return false;
    return mix64(hashSite(seed_, site) ^ key) % 1000 < r;
}

std::uint64_t
FaultPlan::occurrence(const char *site) const
{
    // File-static so FaultPlan stays copyable/movable; contention is
    // nil (occurrence sites are checkpoint writes and journal appends).
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    return ++occurrences_[site];
}

bool
FaultPlan::journalAppendFault(std::uint64_t programIndex) const
{
    if (journalOnce_ > 0 && occurrence("journal.append") == journalOnce_)
        return true;
    return fires("journal.shortwrite", programIndex);
}

bool
FaultPlan::poisoned(unsigned program) const
{
    return poison_.count(program) != 0;
}

std::string
FaultPlan::describe() const
{
    std::string out = "seed=" + std::to_string(seed_);
    for (const auto &[site, rate] : rates_)
        out += ";" + site + "=" + std::to_string(rate);
    if (journalOnce_ > 0)
        out += ";journal.once=" + std::to_string(journalOnce_);
    if (!poison_.empty()) {
        out += ";poison=";
        bool first = true;
        for (const unsigned p : poison_) {
            if (!first)
                out += ":";
            out += std::to_string(p);
            first = false;
        }
    }
    return out;
}

ProgramScope::ProgramScope(unsigned program, unsigned attempt)
    : prevActive_(t_scope.active), prevProgram_(t_scope.program),
      prevAttempt_(t_scope.attempt), prevOps_(t_scope.ops)
{
    t_scope.active = true;
    t_scope.program = program;
    t_scope.attempt = attempt;
    t_scope.ops = 0;
}

ProgramScope::~ProgramScope()
{
    t_scope.active = prevActive_;
    t_scope.program = prevProgram_;
    t_scope.attempt = prevAttempt_;
    t_scope.ops = prevOps_;
}

std::uint64_t
ProgramScope::nextOpKey()
{
    if (!t_scope.active)
        return kUnscopedKey;
    const std::uint64_t key =
        (std::uint64_t(t_scope.program) << 20) | (t_scope.ops & 0xfffffu);
    ++t_scope.ops;
    return key;
}

unsigned
ProgramScope::currentProgram()
{
    return t_scope.active ? t_scope.program : kNoProgram;
}

unsigned
ProgramScope::currentAttempt()
{
    return t_scope.active ? t_scope.attempt : 0;
}

} // namespace amulet::runtime::fault
