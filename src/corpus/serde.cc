#include "corpus/serde.hh"

#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "corpus/fields.hh"
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

// === Building blocks =======================================================

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

void
checkFormatVersion(const Json &json, const std::string &what)
{
    const unsigned version = json.at("version").asUnsigned();
    if (version != kFormatVersion) {
        throw CorpusError(what + " version " + std::to_string(version) +
                          " unsupported (have " +
                          std::to_string(kFormatVersion) + ")");
    }
}

// === Violation records =====================================================

Json
toJson(const core::ViolationRecord &record)
{
    Json j = Json::object();
    j.set("version", Json::number(std::uint64_t{kFormatVersion}));
    encodeInto(record, j);
    return j;
}

core::ViolationRecord
recordFromJson(const Json &json)
{
    checkFormatVersion(json, "corpus record");
    core::ViolationRecord record = decode<core::ViolationRecord>(json);
    // The program travels as disassembly; reparse it now so a corrupt
    // listing fails at load time, not mid-replay.
    try {
        isa::assemble(record.programText);
    } catch (const isa::AsmError &e) {
        throw CorpusError(std::string("corpus program does not "
                                      "assemble: ") +
                          e.what());
    }
    return record;
}

// === Campaign configuration ================================================

Json
configToJson(const core::CampaignConfig &config)
{
    Json j = Json::object();
    j.set("version", Json::number(std::uint64_t{kFormatVersion}));
    encodeInto(config, j);
    return j;
}

core::CampaignConfig
configFromJson(const Json &json)
{
    checkFormatVersion(json, "corpus config");
    return decode<core::CampaignConfig>(json);
}

std::string
configFingerprint(const core::CampaignConfig &config)
{
    // FNV-1a over the canonical dump; the dump holds Definition entries
    // only, so a resumed run at a different parallelism (or any other
    // Runtime entry) still matches its corpus.
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

} // namespace amulet::corpus
