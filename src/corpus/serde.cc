#include "corpus/serde.hh"

#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "isa/assembler.hh"

namespace amulet::corpus
{

// === Json value ============================================================

Json
Json::boolean(bool value)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.bool_ = value;
    return j;
}

Json
Json::number(std::uint64_t value)
{
    Json j;
    j.kind_ = Kind::Num;
    j.scalar_ = std::to_string(value);
    return j;
}

Json
Json::number(double value)
{
    // JSON has no inf/nan literal; emitting one would poison the next
    // reader of the file.
    if (!std::isfinite(value))
        throw CorpusError("JSON: non-finite number");
    Json j;
    j.kind_ = Kind::Num;
    // Shortest round-tripping representation — canonical, so equal
    // doubles always dump to equal text.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    j.scalar_.assign(buf, res.ptr);
    return j;
}

Json
Json::str(std::string value)
{
    Json j;
    j.kind_ = Kind::Str;
    j.scalar_ = std::move(value);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Arr;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Obj;
    return j;
}

bool
Json::asBool() const
{
    if (kind_ != Kind::Bool)
        throw CorpusError("JSON: expected bool");
    return bool_;
}

std::uint64_t
Json::asU64() const
{
    if (kind_ != Kind::Num)
        throw CorpusError("JSON: expected number");
    std::uint64_t value = 0;
    const auto res =
        std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(),
                        value);
    if (res.ec != std::errc{} || res.ptr != scalar_.data() + scalar_.size())
        throw CorpusError("JSON: not an unsigned integer: " + scalar_);
    return value;
}

unsigned
Json::asUnsigned() const
{
    const std::uint64_t v = asU64();
    if (v > ~0u)
        throw CorpusError("JSON: value does not fit unsigned: " + scalar_);
    return static_cast<unsigned>(v);
}

double
Json::asDouble() const
{
    if (kind_ != Kind::Num)
        throw CorpusError("JSON: expected number");
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(scalar_.c_str(), &end);
    if (end != scalar_.c_str() + scalar_.size() || errno == ERANGE ||
        !std::isfinite(value)) {
        throw CorpusError("JSON: not a finite number: " + scalar_);
    }
    return value;
}

const std::string &
Json::asStr() const
{
    if (kind_ != Kind::Str)
        throw CorpusError("JSON: expected string");
    return scalar_;
}

const std::vector<Json> &
Json::items() const
{
    if (kind_ != Kind::Arr)
        throw CorpusError("JSON: expected array");
    return items_;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (kind_ != Kind::Obj)
        throw CorpusError("JSON: expected object");
    return members_;
}

void
Json::push(Json value)
{
    if (kind_ != Kind::Arr)
        throw CorpusError("JSON: push on non-array");
    items_.push_back(std::move(value));
}

void
Json::set(const std::string &key, Json value)
{
    if (kind_ != Kind::Obj)
        throw CorpusError("JSON: set on non-object");
    for (auto &[k, v] : members_) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    members_.emplace_back(key, std::move(value));
}

const Json &
Json::at(const std::string &key) const
{
    if (const Json *found = find(key))
        return *found;
    throw CorpusError("JSON: missing member '" + key + "'");
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Obj)
        throw CorpusError("JSON: member lookup on non-object");
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace
{

constexpr char kHexDigits[] = "0123456789abcdef";

/** Hex digit value by byte, -1 for a non-digit. Indexed by unsigned
 *  char (see nibble()), so bytes >= 0x80 hit -1 entries instead of
 *  reading before the table. */
constexpr std::array<std::int8_t, 256> kNibble = [] {
    std::array<std::int8_t, 256> table{};
    table.fill(-1);
    for (int i = 0; i < 10; ++i)
        table['0' + i] = static_cast<std::int8_t>(i);
    for (int i = 0; i < 6; ++i) {
        table['a' + i] = static_cast<std::int8_t>(10 + i);
        table['A' + i] = static_cast<std::int8_t>(10 + i);
    }
    return table;
}();

int
nibble(char c)
{
    return kNibble[static_cast<unsigned char>(c)];
}

bool
needsEscape(unsigned char c)
{
    return c < 0x20 || c == '"' || c == '\\';
}

/** Index of the first byte at or after @p i that dumpString must
 *  escape, or s.size(). Scans 16-byte blocks branch-free first: the
 *  payloads that dominate the wire (hex sandboxes) have no escapes. */
std::size_t
nextEscape(const std::string &s, std::size_t i)
{
    const auto *p = reinterpret_cast<const unsigned char *>(s.data());
    const std::size_t n = s.size();
    for (; i + 16 <= n; i += 16) {
        unsigned any = 0;
        for (std::size_t k = 0; k < 16; ++k)
            any |= needsEscape(p[i + k]);
        if (any)
            break;
    }
    while (i < n && !needsEscape(p[i]))
        ++i;
    return i;
}

void
dumpString(const std::string &s, std::string &out)
{
    out += '"';
    // Bulk-append the runs between characters that need escaping.
    std::size_t run = 0;
    for (std::size_t i = nextEscape(s, 0); i < s.size();
         i = nextEscape(s, i + 1)) {
        out.append(s, run, i - run);
        run = i + 1;
        const auto c = static_cast<unsigned char>(s[i]);
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
            const char esc[] = {'\\', 'u', '0', '0', kHexDigits[c >> 4],
                                kHexDigits[c & 0xf]};
            out.append(esc, sizeof(esc));
          }
        }
    }
    out.append(s, run, s.size() - run);
    out += '"';
}

} // namespace

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

void
Json::dumpTo(std::string &out) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Num:
        out += scalar_;
        break;
      case Kind::Str:
        dumpString(scalar_, out);
        break;
      case Kind::Arr:
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            items_[i].dumpTo(out);
        }
        out += ']';
        break;
      case Kind::Obj:
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            dumpString(members_[i].first, out);
            out += ':';
            members_[i].second.dumpTo(out);
        }
        out += '}';
        break;
    }
}

// --- Parser ----------------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json value = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw CorpusError("JSON parse error at offset " +
                          std::to_string(pos_) + ": " + msg);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::strlen(lit);
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        // Bounded recursion: corrupt (or hostile, via `merge`) input
        // like a megabyte of '[' must fail as CorpusError, not as a
        // stack overflow. Legitimate corpus documents nest ~4 deep.
        if (depth_ >= kMaxDepth)
            fail("nesting too deep");
        ++depth_;
        Json value = parseValueInner();
        --depth_;
        return value;
    }

    Json
    parseValueInner()
    {
        skipWs();
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Json::str(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Json::boolean(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Json::boolean(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Json{};
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            obj.set(key, parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.push(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        const char *const end = text_.data() + text_.size();
        for (;;) {
            // Bulk-copy up to the next quote or backslash.
            const char *const from = text_.data() + pos_;
            const auto *quote = static_cast<const char *>(
                std::memchr(from, '"', static_cast<std::size_t>(end - from)));
            const char *const limit = quote ? quote : end;
            const auto *escape = static_cast<const char *>(std::memchr(
                from, '\\', static_cast<std::size_t>(limit - from)));
            const char *const stop = escape ? escape : quote;
            if (!stop) {
                pos_ = text_.size();
                fail("unterminated string");
            }
            out.append(from, stop);
            pos_ = static_cast<std::size_t>(stop - text_.data()) + 1;
            if (stop == quote)
                return out;
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char c = text_[pos_++];
            switch (c) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 't':  out += '\t'; break;
              case 'r':  out += '\r'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("bad \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const int h = nibble(text_[pos_++]);
                    if (h < 0)
                        fail("bad \\u escape");
                    cp = (cp << 4) | static_cast<unsigned>(h);
                }
                // The writer only emits \u for control characters, but
                // accept any BMP codepoint as UTF-8.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("expected a value");
        // Integers round-trip exactly via u64; everything else (negative
        // or fractional) is carried as a double. Either way the token
        // must parse completely — a truncated "1e" or lone "-" loading
        // as garbage would break the fail-at-load-time contract.
        std::uint64_t u = 0;
        const char *const first = text_.data() + start;
        const char *const last = text_.data() + pos_;
        const auto res = std::from_chars(first, last, u);
        if (res.ec == std::errc{} && res.ptr == last)
            return Json::number(u);
        const std::string text(first, last);
        char *end = nullptr;
        errno = 0;
        const double d = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size() || errno == ERANGE ||
            !std::isfinite(d)) {
            fail("malformed number '" + text + "'");
        }
        return Json::number(d);
    }

    static constexpr int kMaxDepth = 64;

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

// === Field helpers =========================================================

namespace
{

std::string
hexEncode(const std::uint8_t *data, std::size_t size)
{
    static constexpr std::array<char, 512> kPairs = [] {
        std::array<char, 512> table{};
        for (int b = 0; b < 256; ++b) {
            table[2 * b] = kHexDigits[b >> 4];
            table[2 * b + 1] = kHexDigits[b & 0xf];
        }
        return table;
    }();
    std::string out(size * 2, '\0');
    for (std::size_t i = 0; i < size; ++i)
        std::memcpy(&out[2 * i], &kPairs[2 * data[i]], 2);
    return out;
}

std::vector<std::uint8_t>
hexDecode(const std::string &hex)
{
    if (hex.size() % 2)
        throw CorpusError("odd-length hex string");
    std::vector<std::uint8_t> out(hex.size() / 2);
    int bad = 0; // sign bit set once any digit was invalid
    for (std::size_t i = 0; i < out.size(); ++i) {
        const int hi = nibble(hex[2 * i]);
        const int lo = nibble(hex[2 * i + 1]);
        bad |= hi | lo;
        out[i] = static_cast<std::uint8_t>(((hi & 0xf) << 4) | (lo & 0xf));
    }
    if (bad < 0)
        throw CorpusError("bad hex digit");
    return out;
}

Json
u64Array(const std::vector<std::uint64_t> &values)
{
    Json arr = Json::array();
    for (std::uint64_t v : values)
        arr.push(Json::number(v));
    return arr;
}

std::vector<std::uint64_t>
u64ArrayFromJson(const Json &json)
{
    std::vector<std::uint64_t> out;
    out.reserve(json.items().size());
    for (const Json &item : json.items())
        out.push_back(item.asU64());
    return out;
}

executor::TraceFormat
traceFormatFromToken(const std::string &token)
{
    const auto parsed = executor::parseTraceFormat(token);
    if (!parsed)
        throw CorpusError("unknown trace format: " + token);
    return *parsed;
}

} // namespace

// === Building blocks =======================================================

const char *
traceFormatToken(executor::TraceFormat format)
{
    switch (format) {
      case executor::TraceFormat::L1dTlb:          return "l1dtlb";
      case executor::TraceFormat::L1dTlbL1i:       return "l1dtlbl1i";
      case executor::TraceFormat::BpState:         return "bpstate";
      case executor::TraceFormat::MemAccessOrder:  return "memorder";
      case executor::TraceFormat::BranchPredOrder: return "branchorder";
    }
    return "?";
}

Json
toJson(const arch::Input &input)
{
    Json j = Json::object();
    j.set("id", Json::number(input.id));
    Json regs = Json::array();
    for (RegVal r : input.regs)
        regs.push(Json::number(r));
    j.set("regs", std::move(regs));
    j.set("flags", Json::number(std::uint64_t{input.flagsByte}));
    j.set("sandbox",
          Json::str(hexEncode(input.sandbox.data(), input.sandbox.size())));
    return j;
}

arch::Input
inputFromJson(const Json &json)
{
    arch::Input input;
    input.id = json.at("id").asU64();
    const auto &regs = json.at("regs").items();
    if (regs.size() != input.regs.size())
        throw CorpusError("input: wrong register count");
    for (std::size_t i = 0; i < regs.size(); ++i)
        input.regs[i] = regs[i].asU64();
    input.flagsByte = static_cast<std::uint8_t>(json.at("flags").asU64());
    input.sandbox = hexDecode(json.at("sandbox").asStr());
    return input;
}

Json
toJson(const executor::UTrace &trace)
{
    Json j = Json::object();
    j.set("format", Json::str(traceFormatToken(trace.format)));
    j.set("words", u64Array(trace.words));
    return j;
}

executor::UTrace
traceFromJson(const Json &json)
{
    executor::UTrace trace;
    trace.format = traceFormatFromToken(json.at("format").asStr());
    trace.words = u64ArrayFromJson(json.at("words"));
    // The hash cache is never serialized; rebuild it so traces that
    // crossed the wire (subprocess backend) or the journal take the
    // same fast-inequality path as freshly extracted ones.
    trace.finalizeHash();
    return trace;
}

Json
toJson(const executor::UarchContext &ctx)
{
    Json bp = Json::object();
    bp.set("ghr", Json::number(std::uint64_t{ctx.bp.ghr}));
    bp.set("pht", Json::str(hexEncode(ctx.bp.pht.data(),
                                      ctx.bp.pht.size())));
    bp.set("btbTags", u64Array(ctx.bp.btbTags));
    bp.set("btbTargets", u64Array(ctx.bp.btbTargets));
    Json j = Json::object();
    j.set("bp", std::move(bp));
    j.set("mdp", Json::str(hexEncode(ctx.mdp.data(), ctx.mdp.size())));
    return j;
}

executor::UarchContext
contextFromJson(const Json &json)
{
    executor::UarchContext ctx;
    const Json &bp = json.at("bp");
    ctx.bp.ghr = static_cast<std::uint32_t>(bp.at("ghr").asU64());
    ctx.bp.pht = hexDecode(bp.at("pht").asStr());
    ctx.bp.btbTags = u64ArrayFromJson(bp.at("btbTags"));
    ctx.bp.btbTargets = u64ArrayFromJson(bp.at("btbTargets"));
    ctx.mdp = hexDecode(json.at("mdp").asStr());
    return ctx;
}

Json
toJson(const Rng::State &state)
{
    Json arr = Json::array();
    for (std::uint64_t word : state)
        arr.push(Json::number(word));
    return arr;
}

Rng::State
rngStateFromJson(const Json &json)
{
    Rng::State state{};
    const auto &items = json.items();
    if (items.size() != state.size())
        throw CorpusError("rng state: wrong word count");
    for (std::size_t i = 0; i < state.size(); ++i)
        state[i] = items[i].asU64();
    return state;
}

// === Violation records =====================================================

Json
toJson(const core::ViolationRecord &record)
{
    Json j = Json::object();
    j.set("version", Json::number(std::uint64_t{kFormatVersion}));
    j.set("defense", Json::str(record.defenseName));
    j.set("contract", Json::str(record.contractName));
    j.set("programIndex",
          Json::number(std::uint64_t{record.programIndex}));
    j.set("program", Json::str(record.programText));
    j.set("inputA", toJson(record.inputA));
    j.set("inputB", toJson(record.inputB));
    j.set("traceA", toJson(record.traceA));
    j.set("traceB", toJson(record.traceB));
    j.set("ctxA", toJson(record.ctxA));
    j.set("ctxB", toJson(record.ctxB));
    j.set("ctraceHash", Json::number(record.ctraceHash));
    j.set("signature", Json::str(record.signature));
    j.set("rngState", toJson(record.rngState));
    j.set("detectSeconds", Json::number(record.detectSeconds));
    return j;
}

core::ViolationRecord
recordFromJson(const Json &json)
{
    const unsigned version = json.at("version").asUnsigned();
    if (version != kFormatVersion) {
        throw CorpusError("corpus record version " +
                          std::to_string(version) + " unsupported (have " +
                          std::to_string(kFormatVersion) + ")");
    }
    core::ViolationRecord record;
    record.defenseName = json.at("defense").asStr();
    record.contractName = json.at("contract").asStr();
    record.programIndex = json.at("programIndex").asUnsigned();
    record.programText = json.at("program").asStr();
    // The program travels as disassembly; reparse it now so a corrupt
    // listing fails at load time, not mid-replay.
    try {
        isa::assemble(record.programText);
    } catch (const isa::AsmError &e) {
        throw CorpusError(std::string("corpus program does not "
                                      "assemble: ") +
                          e.what());
    }
    record.inputA = inputFromJson(json.at("inputA"));
    record.inputB = inputFromJson(json.at("inputB"));
    record.traceA = traceFromJson(json.at("traceA"));
    record.traceB = traceFromJson(json.at("traceB"));
    record.ctxA = contextFromJson(json.at("ctxA"));
    record.ctxB = contextFromJson(json.at("ctxB"));
    record.ctraceHash = json.at("ctraceHash").asU64();
    record.signature = json.at("signature").asStr();
    record.rngState = rngStateFromJson(json.at("rngState"));
    record.detectSeconds = json.at("detectSeconds").asDouble();
    return record;
}

// === Campaign configuration ================================================

namespace
{

const char *
primeModeToken(executor::PrimeMode mode)
{
    return mode == executor::PrimeMode::ConflictFill ? "conflictfill"
                                                     : "invalidate";
}

executor::PrimeMode
primeModeFromToken(const std::string &token)
{
    if (token == "conflictfill")
        return executor::PrimeMode::ConflictFill;
    if (token == "invalidate")
        return executor::PrimeMode::Invalidate;
    throw CorpusError("unknown prime mode: " + token);
}

const char *
tlbPrefillToken(executor::TlbPrefill prefill)
{
    switch (prefill) {
      case executor::TlbPrefill::Auto:      return "auto";
      case executor::TlbPrefill::GuardOnly: return "guardonly";
      case executor::TlbPrefill::None:      return "none";
    }
    return "?";
}

executor::TlbPrefill
tlbPrefillFromToken(const std::string &token)
{
    if (token == "auto")
        return executor::TlbPrefill::Auto;
    if (token == "guardonly")
        return executor::TlbPrefill::GuardOnly;
    if (token == "none")
        return executor::TlbPrefill::None;
    throw CorpusError("unknown tlb prefill: " + token);
}

Json
cacheToJson(const uarch::CacheParams &cache)
{
    Json j = Json::object();
    j.set("sizeBytes", Json::number(std::uint64_t{cache.sizeBytes}));
    j.set("ways", Json::number(std::uint64_t{cache.ways}));
    j.set("lineBytes", Json::number(std::uint64_t{cache.lineBytes}));
    return j;
}

uarch::CacheParams
cacheFromJson(const Json &json)
{
    uarch::CacheParams cache;
    cache.sizeBytes = json.at("sizeBytes").asUnsigned();
    cache.ways = json.at("ways").asUnsigned();
    cache.lineBytes = json.at("lineBytes").asUnsigned();
    return cache;
}

Json
coreToJson(const uarch::CoreParams &core)
{
    Json j = Json::object();
    j.set("fetchWidth", Json::number(std::uint64_t{core.fetchWidth}));
    j.set("issueWidth", Json::number(std::uint64_t{core.issueWidth}));
    j.set("commitWidth", Json::number(std::uint64_t{core.commitWidth}));
    j.set("robSize", Json::number(std::uint64_t{core.robSize}));
    j.set("lqSize", Json::number(std::uint64_t{core.lqSize}));
    j.set("sqSize", Json::number(std::uint64_t{core.sqSize}));
    j.set("l1d", cacheToJson(core.l1d));
    j.set("l1i", cacheToJson(core.l1i));
    j.set("l2", cacheToJson(core.l2));
    j.set("l1dMshrs", Json::number(std::uint64_t{core.l1dMshrs}));
    j.set("l1iMshrs", Json::number(std::uint64_t{core.l1iMshrs}));
    j.set("l1HitLatency", Json::number(std::uint64_t{core.l1HitLatency}));
    j.set("l2HitLatency", Json::number(std::uint64_t{core.l2HitLatency}));
    j.set("memLatency", Json::number(std::uint64_t{core.memLatency}));
    j.set("l2ServiceInterval",
          Json::number(std::uint64_t{core.l2ServiceInterval}));
    j.set("tlbEntries", Json::number(std::uint64_t{core.tlbEntries}));
    j.set("tlbWalkLatency",
          Json::number(std::uint64_t{core.tlbWalkLatency}));
    j.set("aluLatency", Json::number(std::uint64_t{core.aluLatency}));
    j.set("mulLatency", Json::number(std::uint64_t{core.mulLatency}));
    j.set("branchLatency",
          Json::number(std::uint64_t{core.branchLatency}));
    j.set("ghrBits", Json::number(std::uint64_t{core.ghrBits}));
    j.set("phtBits", Json::number(std::uint64_t{core.phtBits}));
    j.set("btbEntries", Json::number(std::uint64_t{core.btbEntries}));
    j.set("mdpEntries", Json::number(std::uint64_t{core.mdpEntries}));
    j.set("specBufferEntries",
          Json::number(std::uint64_t{core.specBufferEntries}));
    j.set("lfbEntries", Json::number(std::uint64_t{core.lfbEntries}));
    j.set("cleanupLatency",
          Json::number(std::uint64_t{core.cleanupLatency}));
    j.set("maxCyclesPerRun", Json::number(core.maxCyclesPerRun));
    return j;
}

uarch::CoreParams
coreFromJson(const Json &json)
{
    uarch::CoreParams core;
    core.fetchWidth = json.at("fetchWidth").asUnsigned();
    core.issueWidth = json.at("issueWidth").asUnsigned();
    core.commitWidth = json.at("commitWidth").asUnsigned();
    core.robSize = json.at("robSize").asUnsigned();
    core.lqSize = json.at("lqSize").asUnsigned();
    core.sqSize = json.at("sqSize").asUnsigned();
    core.l1d = cacheFromJson(json.at("l1d"));
    core.l1i = cacheFromJson(json.at("l1i"));
    core.l2 = cacheFromJson(json.at("l2"));
    core.l1dMshrs = json.at("l1dMshrs").asUnsigned();
    core.l1iMshrs = json.at("l1iMshrs").asUnsigned();
    core.l1HitLatency = json.at("l1HitLatency").asUnsigned();
    core.l2HitLatency = json.at("l2HitLatency").asUnsigned();
    core.memLatency = json.at("memLatency").asUnsigned();
    core.l2ServiceInterval = json.at("l2ServiceInterval").asUnsigned();
    core.tlbEntries = json.at("tlbEntries").asUnsigned();
    core.tlbWalkLatency = json.at("tlbWalkLatency").asUnsigned();
    core.aluLatency = json.at("aluLatency").asUnsigned();
    core.mulLatency = json.at("mulLatency").asUnsigned();
    core.branchLatency = json.at("branchLatency").asUnsigned();
    core.ghrBits = json.at("ghrBits").asUnsigned();
    core.phtBits = json.at("phtBits").asUnsigned();
    core.btbEntries = json.at("btbEntries").asUnsigned();
    core.mdpEntries = json.at("mdpEntries").asUnsigned();
    core.specBufferEntries = json.at("specBufferEntries").asUnsigned();
    core.lfbEntries = json.at("lfbEntries").asUnsigned();
    core.cleanupLatency = json.at("cleanupLatency").asUnsigned();
    core.maxCyclesPerRun = json.at("maxCyclesPerRun").asU64();
    return core;
}

Json
mapToJson(const mem::AddressMap &map)
{
    Json j = Json::object();
    j.set("codeBase", Json::number(map.codeBase));
    j.set("sandboxBase", Json::number(map.sandboxBase));
    j.set("sandboxPages", Json::number(std::uint64_t{map.sandboxPages}));
    j.set("primeBase", Json::number(map.primeBase));
    return j;
}

mem::AddressMap
mapFromJson(const Json &json)
{
    mem::AddressMap map;
    map.codeBase = json.at("codeBase").asU64();
    map.sandboxBase = json.at("sandboxBase").asU64();
    map.sandboxPages = json.at("sandboxPages").asUnsigned();
    map.primeBase = json.at("primeBase").asU64();
    return map;
}

Json
defenseToJson(const defense::DefenseConfig &defense)
{
    Json j = Json::object();
    j.set("kind", Json::str(defense::defenseKindName(defense.kind)));
    j.set("invisispecBugSpecEviction",
          Json::boolean(defense.invisispecBugSpecEviction));
    j.set("cleanupBugStoreNotCleaned",
          Json::boolean(defense.cleanupBugStoreNotCleaned));
    j.set("cleanupBugSplitNotCleaned",
          Json::boolean(defense.cleanupBugSplitNotCleaned));
    j.set("cleanupNoCleanPatch", Json::boolean(defense.cleanupNoCleanPatch));
    j.set("sttBugTaintedStoreTlb",
          Json::boolean(defense.sttBugTaintedStoreTlb));
    j.set("speclfbBugFirstLoad",
          Json::boolean(defense.speclfbBugFirstLoad));
    return j;
}

defense::DefenseConfig
defenseFromJson(const Json &json)
{
    defense::DefenseConfig defense;
    const auto kind = defense::parseDefenseKind(json.at("kind").asStr());
    if (!kind)
        throw CorpusError("unknown defense: " + json.at("kind").asStr());
    defense.kind = *kind;
    defense.invisispecBugSpecEviction =
        json.at("invisispecBugSpecEviction").asBool();
    defense.cleanupBugStoreNotCleaned =
        json.at("cleanupBugStoreNotCleaned").asBool();
    defense.cleanupBugSplitNotCleaned =
        json.at("cleanupBugSplitNotCleaned").asBool();
    defense.cleanupNoCleanPatch = json.at("cleanupNoCleanPatch").asBool();
    defense.sttBugTaintedStoreTlb =
        json.at("sttBugTaintedStoreTlb").asBool();
    defense.speclfbBugFirstLoad =
        json.at("speclfbBugFirstLoad").asBool();
    return defense;
}

Json
contractToJson(const contracts::ContractSpec &contract)
{
    Json j = Json::object();
    j.set("name", Json::str(contract.name));
    j.set("observePc", Json::boolean(contract.observePc));
    j.set("observeMemAddr", Json::boolean(contract.observeMemAddr));
    j.set("observeLoadValues", Json::boolean(contract.observeLoadValues));
    j.set("exposeInitialRegs", Json::boolean(contract.exposeInitialRegs));
    j.set("exploreMispredictedBranches",
          Json::boolean(contract.exploreMispredictedBranches));
    j.set("speculationWindow",
          Json::number(std::uint64_t{contract.speculationWindow}));
    j.set("maxNesting", Json::number(std::uint64_t{contract.maxNesting}));
    return j;
}

contracts::ContractSpec
contractFromJson(const Json &json)
{
    contracts::ContractSpec contract;
    contract.name = json.at("name").asStr();
    contract.observePc = json.at("observePc").asBool();
    contract.observeMemAddr = json.at("observeMemAddr").asBool();
    contract.observeLoadValues = json.at("observeLoadValues").asBool();
    contract.exposeInitialRegs = json.at("exposeInitialRegs").asBool();
    contract.exploreMispredictedBranches =
        json.at("exploreMispredictedBranches").asBool();
    contract.speculationWindow =
        json.at("speculationWindow").asUnsigned();
    contract.maxNesting = json.at("maxNesting").asUnsigned();
    return contract;
}

Json
generatorToJson(const core::GeneratorConfig &gen)
{
    Json j = Json::object();
    j.set("minBlocks", Json::number(std::uint64_t{gen.minBlocks}));
    j.set("maxBlocks", Json::number(std::uint64_t{gen.maxBlocks}));
    j.set("minInstsPerBlock",
          Json::number(std::uint64_t{gen.minInstsPerBlock}));
    j.set("maxInstsPerBlock",
          Json::number(std::uint64_t{gen.maxInstsPerBlock}));
    j.set("memAccessPct", Json::number(std::uint64_t{gen.memAccessPct}));
    j.set("storePct", Json::number(std::uint64_t{gen.storePct}));
    j.set("rmwPct", Json::number(std::uint64_t{gen.rmwPct}));
    j.set("cmovLoadPct", Json::number(std::uint64_t{gen.cmovLoadPct}));
    j.set("fencePct", Json::number(std::uint64_t{gen.fencePct}));
    j.set("setccPct", Json::number(std::uint64_t{gen.setccPct}));
    j.set("condBranchPct", Json::number(std::uint64_t{gen.condBranchPct}));
    j.set("loopnePct", Json::number(std::uint64_t{gen.loopnePct}));
    j.set("branchOnLoadPct",
          Json::number(std::uint64_t{gen.branchOnLoadPct}));
    j.set("unalignedPct", Json::number(std::uint64_t{gen.unalignedPct}));
    Json weights = Json::array();
    for (std::uint32_t w : gen.widthWeights)
        weights.push(Json::number(std::uint64_t{w}));
    j.set("widthWeights", std::move(weights));
    return j;
}

core::GeneratorConfig
generatorFromJson(const Json &json, const mem::AddressMap &map)
{
    core::GeneratorConfig gen;
    gen.minBlocks = json.at("minBlocks").asUnsigned();
    gen.maxBlocks = json.at("maxBlocks").asUnsigned();
    gen.minInstsPerBlock = json.at("minInstsPerBlock").asUnsigned();
    gen.maxInstsPerBlock = json.at("maxInstsPerBlock").asUnsigned();
    gen.memAccessPct = json.at("memAccessPct").asUnsigned();
    gen.storePct = json.at("storePct").asUnsigned();
    gen.rmwPct = json.at("rmwPct").asUnsigned();
    gen.cmovLoadPct = json.at("cmovLoadPct").asUnsigned();
    gen.fencePct = json.at("fencePct").asUnsigned();
    gen.setccPct = json.at("setccPct").asUnsigned();
    gen.condBranchPct = json.at("condBranchPct").asUnsigned();
    gen.loopnePct = json.at("loopnePct").asUnsigned();
    gen.branchOnLoadPct = json.at("branchOnLoadPct").asUnsigned();
    gen.unalignedPct = json.at("unalignedPct").asUnsigned();
    gen.widthWeights.clear();
    for (const Json &w : json.at("widthWeights").items())
        gen.widthWeights.push_back(
            static_cast<std::uint32_t>(w.asU64()));
    gen.map = map;
    return gen;
}

} // namespace

Json
harnessToJson(const executor::HarnessConfig &config)
{
    Json harness = Json::object();
    harness.set("core", coreToJson(config.core));
    harness.set("defense", defenseToJson(config.defense));
    harness.set("map", mapToJson(config.map));
    harness.set("prime", Json::str(primeModeToken(config.prime)));
    harness.set("traceFormat",
                Json::str(traceFormatToken(config.traceFormat)));
    harness.set("naiveMode", Json::boolean(config.naiveMode));
    harness.set("tlbPrefill",
                Json::str(tlbPrefillToken(config.tlbPrefill)));
    harness.set("bootInsts", Json::number(std::uint64_t{config.bootInsts}));
    // HarnessConfig::primeCache and ::cycleSkip are deliberately NOT
    // serialized: they are runtime knobs like jobs/backend — results
    // are byte-identical with either setting — so they must not move
    // the corpus config fingerprint, and corpora written with different
    // settings may mix. The subprocess wire hello carries them out of
    // band.
    return harness;
}

executor::HarnessConfig
harnessFromJson(const Json &json)
{
    executor::HarnessConfig config;
    config.core = coreFromJson(json.at("core"));
    config.defense = defenseFromJson(json.at("defense"));
    config.map = mapFromJson(json.at("map"));
    config.prime = primeModeFromToken(json.at("prime").asStr());
    config.traceFormat =
        traceFormatFromToken(json.at("traceFormat").asStr());
    config.naiveMode = json.at("naiveMode").asBool();
    config.tlbPrefill = tlbPrefillFromToken(json.at("tlbPrefill").asStr());
    config.bootInsts = json.at("bootInsts").asUnsigned();
    return config;
}

Json
configToJson(const core::CampaignConfig &config)
{
    Json j = Json::object();
    j.set("version", Json::number(std::uint64_t{kFormatVersion}));
    j.set("harness", harnessToJson(config.harness));
    j.set("contract", contractToJson(config.contract));
    j.set("gen", generatorToJson(config.gen));
    j.set("inputSmallRegPct",
          Json::number(std::uint64_t{config.inputs.smallRegPct}));
    j.set("numPrograms", Json::number(std::uint64_t{config.numPrograms}));
    j.set("baseInputsPerProgram",
          Json::number(std::uint64_t{config.baseInputsPerProgram}));
    j.set("siblingsPerBase",
          Json::number(std::uint64_t{config.siblingsPerBase}));
    j.set("regMutationPct",
          Json::number(std::uint64_t{config.regMutationPct}));
    // Part of the campaign definition: filtering changes which inputs
    // the simulator executes (and how μarch state evolves across them),
    // so corpora written with it on and off must not mix.
    j.set("filterIneffective", Json::boolean(config.filterIneffective));
    j.set("stopAtFirstViolation",
          Json::boolean(config.stopAtFirstViolation));
    j.set("collectSignatures", Json::boolean(config.collectSignatures));
    j.set("collectAllFormats", Json::boolean(config.collectAllFormats));
    j.set("maxViolationsRecorded",
          Json::number(std::uint64_t{config.maxViolationsRecorded}));
    j.set("seed", Json::number(config.seed));
    // CampaignConfig::ctraceMemo is deliberately NOT serialized: a
    // runtime knob like jobs/backend/primeCache — contract traces are
    // byte-identical with the memo on or off (tests/test_ctrace_memo.cc)
    // — so it must not move the corpus config fingerprint, and corpora
    // written with different settings may mix.
    // CampaignConfig::faultPlan is likewise runtime-only: fault
    // injection may quarantine programs (which the journal records per
    // program), but every surviving program's results are
    // byte-identical to a clean run (tests/test_fault.cc), so the plan
    // must not move the fingerprint — a chaos run and its clean
    // reference share one corpus identity.
    return j;
}

core::CampaignConfig
configFromJson(const Json &json)
{
    const unsigned version = json.at("version").asUnsigned();
    if (version != kFormatVersion) {
        throw CorpusError("corpus config version " +
                          std::to_string(version) + " unsupported");
    }
    core::CampaignConfig config;
    config.harness = harnessFromJson(json.at("harness"));
    config.contract = contractFromJson(json.at("contract"));
    config.gen = generatorFromJson(json.at("gen"), config.harness.map);
    config.inputs.map = config.harness.map;
    config.inputs.smallRegPct = json.at("inputSmallRegPct").asUnsigned();
    config.numPrograms = json.at("numPrograms").asUnsigned();
    config.baseInputsPerProgram =
        json.at("baseInputsPerProgram").asUnsigned();
    config.siblingsPerBase = json.at("siblingsPerBase").asUnsigned();
    config.regMutationPct = json.at("regMutationPct").asUnsigned();
    config.filterIneffective = json.at("filterIneffective").asBool();
    config.stopAtFirstViolation =
        json.at("stopAtFirstViolation").asBool();
    config.collectSignatures = json.at("collectSignatures").asBool();
    config.collectAllFormats = json.at("collectAllFormats").asBool();
    config.maxViolationsRecorded =
        json.at("maxViolationsRecorded").asUnsigned();
    config.seed = json.at("seed").asU64();
    return config;
}

std::string
configFingerprint(const core::CampaignConfig &config)
{
    // FNV-1a over the canonical dump; the dump excludes runtime knobs
    // (jobs, corpus fields), so a resumed run at a different parallelism
    // still matches its corpus.
    const std::string dump = configToJson(config).dump();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : dump) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// === Per-program outcomes ==================================================

Json
outcomeToJson(const runtime::ProgramOutcome &outcome)
{
    Json j = Json::object();
    j.set("ran", Json::boolean(outcome.ran));
    j.set("skippedProgram", Json::boolean(outcome.skippedProgram));
    j.set("quarantined", Json::boolean(outcome.quarantined));
    j.set("quarantineReason", Json::str(outcome.quarantineReason));
    j.set("testCases", Json::number(outcome.testCases));
    j.set("filteredTestCases",
          Json::number(outcome.filteredTestCases));
    j.set("effectiveClasses", Json::number(outcome.effectiveClasses));
    j.set("candidateViolations",
          Json::number(outcome.candidateViolations));
    j.set("validationRuns", Json::number(outcome.validationRuns));
    j.set("violatingTestCases",
          Json::number(outcome.violatingTestCases));
    j.set("confirmedViolations",
          Json::number(outcome.confirmedViolations));
    j.set("firstDetectSeconds", Json::number(outcome.firstDetectSeconds));
    j.set("testGenSec", Json::number(outcome.testGenSec));
    j.set("ctraceSec", Json::number(outcome.ctraceSec));
    j.set("filterSec", Json::number(outcome.filterSec));
    Json sigs = Json::object();
    for (const auto &[sig, count] : outcome.signatureCounts)
        sigs.set(sig, Json::number(count));
    j.set("signatureCounts", std::move(sigs));
    Json tallies = Json::array();
    for (const auto &[format, tally] : outcome.formatTallies) {
        Json t = Json::object();
        t.set("format", Json::str(traceFormatToken(format)));
        t.set("violatingTestCases",
              Json::number(tally.violatingTestCases));
        t.set("coveredByBaseline",
              Json::number(tally.coveredByBaseline));
        tallies.push(std::move(t));
    }
    j.set("formatTallies", std::move(tallies));
    // Deliberately no records: they are journaled (and byte-identical)
    // already; the checkpoint stays O(counters) per program and resume
    // rehydrates records from the journal by program index.
    return j;
}

runtime::ProgramOutcome
outcomeFromJson(const Json &json)
{
    runtime::ProgramOutcome outcome;
    outcome.ran = json.at("ran").asBool();
    outcome.skippedProgram = json.at("skippedProgram").asBool();
    outcome.quarantined = json.at("quarantined").asBool();
    outcome.quarantineReason = json.at("quarantineReason").asStr();
    outcome.testCases = json.at("testCases").asU64();
    outcome.filteredTestCases = json.at("filteredTestCases").asU64();
    outcome.effectiveClasses = json.at("effectiveClasses").asU64();
    outcome.candidateViolations =
        json.at("candidateViolations").asU64();
    outcome.validationRuns = json.at("validationRuns").asU64();
    outcome.violatingTestCases = json.at("violatingTestCases").asU64();
    outcome.confirmedViolations =
        json.at("confirmedViolations").asU64();
    outcome.firstDetectSeconds =
        json.at("firstDetectSeconds").asDouble();
    outcome.testGenSec = json.at("testGenSec").asDouble();
    outcome.ctraceSec = json.at("ctraceSec").asDouble();
    outcome.filterSec = json.at("filterSec").asDouble();
    for (const auto &[sig, count] : json.at("signatureCounts").members())
        outcome.signatureCounts[sig] = count.asU64();
    for (const Json &t : json.at("formatTallies").items()) {
        core::FormatTally tally;
        tally.violatingTestCases = t.at("violatingTestCases").asU64();
        tally.coveredByBaseline = t.at("coveredByBaseline").asU64();
        outcome.formatTallies[traceFormatFromToken(
            t.at("format").asStr())] = tally;
    }
    return outcome; // records rehydrate from the journal, not from here
}

} // namespace amulet::corpus
