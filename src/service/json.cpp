#include "service/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace chocoq::service
{

namespace
{

/** Recursive-descent JSON parser over a flat character range. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    document()
    {
        Json v = value();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        CHOCOQ_FATAL("JSON parse error at offset " << pos_ << ": " << what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
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
    consumeWord(const char *word)
    {
        std::size_t len = 0;
        while (word[len] != '\0')
            ++len;
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    Json
    value()
    {
        // Depth cap: the parser is recursive and the input is untrusted
        // (chocoq_serve reads stdin); without it a line of 100k '['s
        // would overflow the stack instead of failing the request.
        if (depth_ >= kMaxDepth)
            fail("nesting exceeds the maximum depth of 256");
        switch (peek()) {
          case '{':
            return objectValue();
          case '[':
            return arrayValue();
          case '"':
            return Json(stringValue());
          case 't':
            if (consumeWord("true"))
                return Json(true);
            fail("invalid literal");
          case 'f':
            if (consumeWord("false"))
                return Json(false);
            fail("invalid literal");
          case 'n':
            if (consumeWord("null"))
                return Json();
            fail("invalid literal");
          default:
            return numberValue();
        }
    }

    Json
    objectValue()
    {
        ++depth_;
        expect('{');
        Json obj = Json::object();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return obj;
        }
        while (true) {
            if (peek() != '"')
                fail("expected object key");
            std::string key = stringValue();
            expect(':');
            obj.set(key, value());
            const char c = peek();
            ++pos_;
            if (c == '}') {
                --depth_;
                return obj;
            }
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Json
    arrayValue()
    {
        ++depth_;
        expect('[');
        Json arr = Json::array();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return arr;
        }
        while (true) {
            arr.push(value());
            const char c = peek();
            ++pos_;
            if (c == ']') {
                --depth_;
                return arr;
            }
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    stringValue()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                unsigned cp = hex4();
                // UTF-16 surrogate pair: a high surrogate must be
                // followed by an escaped low surrogate; combined they
                // name one supplementary-plane code point.
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    if (pos_ + 2 > text_.size() || text_[pos_] != '\\'
                        || text_[pos_ + 1] != 'u')
                        fail("high surrogate without a low surrogate");
                    pos_ += 2;
                    const unsigned lo = hex4();
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("unexpected low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("unknown escape character");
            }
        }
    }

    unsigned
    hex4()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
                cp += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                cp += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                cp += static_cast<unsigned>(h - 'A' + 10);
            else
                fail("invalid \\u escape digit");
        }
        return cp;
    }

    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    Json
    numberValue()
    {
        skipSpace();
        const std::size_t begin = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()
               && ((text_[pos_] >= '0' && text_[pos_] <= '9')
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E' || text_[pos_] == '+'
                   || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == begin)
            fail("expected a value");
        char *end = nullptr;
        const std::string tok = text_.substr(begin, pos_ - begin);
        const double v = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0')
            fail("malformed number '" + tok + "'");
        return Json(v);
    }

    static constexpr int kMaxDepth = 256;

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

void
writeEscaped(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xFF);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
writeNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null"; // JSON has no Inf/NaN
        return;
    }
    // Integers (the common case: counts, ids, hashes) print exactly;
    // everything else uses round-trip precision.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

} // namespace

Json
Json::array()
{
    Json v;
    v.kind_ = Kind::Array;
    return v;
}

Json
Json::object()
{
    Json v;
    v.kind_ = Kind::Object;
    return v;
}

Json
Json::parse(const std::string &text)
{
    return Parser(text).document();
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object_)
        if (k == key)
            return &v;
    return nullptr;
}

bool
Json::asBool(bool fallback) const
{
    return kind_ == Kind::Bool ? bool_ : fallback;
}

double
Json::asNumber(double fallback) const
{
    return kind_ == Kind::Number ? number_ : fallback;
}

std::string
Json::asString(std::string fallback) const
{
    return kind_ == Kind::String ? string_ : fallback;
}

bool
Json::getBool(const std::string &key, bool fallback) const
{
    const Json *v = find(key);
    return v ? v->asBool(fallback) : fallback;
}

double
Json::getNumber(const std::string &key, double fallback) const
{
    const Json *v = find(key);
    return v ? v->asNumber(fallback) : fallback;
}

std::string
Json::getString(const std::string &key, std::string fallback) const
{
    const Json *v = find(key);
    return v ? v->asString(std::move(fallback)) : fallback;
}

Json &
Json::push(Json v)
{
    CHOCOQ_ASSERT(kind_ == Kind::Array || kind_ == Kind::Null,
                  "push on a non-array JSON value");
    kind_ = Kind::Array;
    array_.push_back(std::move(v));
    return *this;
}

Json &
Json::set(const std::string &key, Json v)
{
    CHOCOQ_ASSERT(kind_ == Kind::Object || kind_ == Kind::Null,
                  "set on a non-object JSON value");
    kind_ = Kind::Object;
    for (auto &[k, existing] : object_) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    object_.emplace_back(key, std::move(v));
    return *this;
}

void
Json::write(std::string &out, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent > 0) {
            out.push_back('\n');
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        writeNumber(out, number_);
        break;
      case Kind::String:
        writeEscaped(out, string_);
        break;
      case Kind::Array:
        out.push_back('[');
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            newline(depth + 1);
            array_[i].write(out, indent, depth + 1);
        }
        if (!array_.empty())
            newline(depth);
        out.push_back(']');
        break;
      case Kind::Object:
        out.push_back('{');
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            newline(depth + 1);
            writeEscaped(out, object_[i].first);
            out.push_back(':');
            if (indent > 0)
                out.push_back(' ');
            object_[i].second.write(out, indent, depth + 1);
        }
        if (!object_.empty())
            newline(depth);
        out.push_back('}');
        break;
    }
}

std::string
Json::dump() const
{
    std::string out;
    write(out, 0, 0);
    return out;
}

std::string
Json::pretty() const
{
    std::string out;
    write(out, 2, 0);
    return out;
}

} // namespace chocoq::service
