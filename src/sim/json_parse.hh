/**
 * @file
 * A minimal recursive-descent JSON parser.
 *
 * Counterpart to the writer in sim/json.hh, used by the baseline
 * comparison engine (runner/baseline.hh) to read `BENCH_*.json`
 * documents back in. Supports the full RFC 8259 value grammar the
 * writer can produce: objects (member order preserved), arrays,
 * strings with escapes, numbers, booleans, and null. Parse errors
 * return a message instead of throwing — callers decide whether a
 * malformed document is fatal.
 */

#ifndef CEREAL_SIM_JSON_PARSE_HH
#define CEREAL_SIM_JSON_PARSE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cereal {
namespace json {

/** One parsed JSON value. Objects preserve member order. */
struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return type == Type::Null; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Member lookup; nullptr when absent or not an object. */
    const Value *
    find(const std::string &key) const
    {
        if (!isObject()) {
            return nullptr;
        }
        for (const auto &kv : object) {
            if (kv.first == key) {
                return &kv.second;
            }
        }
        return nullptr;
    }
};

/** Result of a parse: a value, or an error message with position. */
struct ParseResult
{
    Value value;
    std::string error;

    bool ok() const { return error.empty(); }
};

namespace detail {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    ParseResult
    run()
    {
        ParseResult out;
        skipWs();
        if (!parseValue(out.value)) {
            out.error = error_;
            return out;
        }
        skipWs();
        if (pos_ != s_.size()) {
            out.error = at("trailing content after document");
        }
        return out;
    }

  private:
    std::string
    at(const std::string &msg) const
    {
        return msg + " at offset " + std::to_string(pos_);
    }

    bool
    fail(const std::string &msg)
    {
        if (error_.empty()) {
            error_ = at(msg);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (s_.compare(pos_, len, word) != 0) {
            return fail(std::string("invalid literal (expected '") + word +
                        "')");
        }
        pos_ += len;
        return true;
    }

    bool
    parseValue(Value &v)
    {
        if (depth_ > kMaxDepth) {
            return fail("nesting too deep");
        }
        if (pos_ >= s_.size()) {
            return fail("unexpected end of input");
        }
        switch (s_[pos_]) {
          case '{': return parseObject(v);
          case '[': return parseArray(v);
          case '"':
            v.type = Value::Type::String;
            return parseString(v.str);
          case 't':
            v.type = Value::Type::Bool;
            v.boolean = true;
            return literal("true", 4);
          case 'f':
            v.type = Value::Type::Bool;
            v.boolean = false;
            return literal("false", 5);
          case 'n':
            v.type = Value::Type::Null;
            return literal("null", 4);
          default: return parseNumber(v);
        }
    }

    bool
    parseObject(Value &v)
    {
        v.type = Value::Type::Object;
        ++pos_; // '{'
        ++depth_;
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= s_.size() || s_[pos_] != '"') {
                return fail("expected object key");
            }
            if (!parseString(key)) {
                return false;
            }
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':') {
                return fail("expected ':' after object key");
            }
            ++pos_;
            skipWs();
            Value member;
            if (!parseValue(member)) {
                return false;
            }
            v.object.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos_ >= s_.size()) {
                return fail("unterminated object");
            }
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(Value &v)
    {
        v.type = Value::Type::Array;
        ++pos_; // '['
        ++depth_;
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skipWs();
            Value elem;
            if (!parseValue(elem)) {
                return false;
            }
            v.array.push_back(std::move(elem));
            skipWs();
            if (pos_ >= s_.size()) {
                return fail("unterminated array");
            }
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // '"'
        out.clear();
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) {
                    break;
                }
                switch (s_[pos_]) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': {
                    if (pos_ + 4 >= s_.size()) {
                        return fail("truncated \\u escape");
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = s_[pos_ + 1 + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            return fail("invalid \\u escape");
                        }
                    }
                    pos_ += 4;
                    // UTF-8 encode the BMP code point (the writer only
                    // emits \u00xx control escapes; surrogates are
                    // passed through as replacement-free 3-byte forms).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(
                            static_cast<char>(0xc0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    } else {
                        out.push_back(
                            static_cast<char>(0xe0 | (code >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    }
                    break;
                  }
                  default: return fail("invalid escape character");
                }
                ++pos_;
                continue;
            }
            out.push_back(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &v)
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-') {
            ++pos_;
        }
        while (pos_ < s_.size() &&
               ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            return fail("expected a value");
        }
        const std::string text = s_.substr(start, pos_ - start);
        char *end = nullptr;
        const double d = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size()) {
            pos_ = start;
            return fail("malformed number");
        }
        v.type = Value::Type::Number;
        v.number = d;
        return true;
    }

    static constexpr unsigned kMaxDepth = 64;

    const std::string &s_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;
    std::string error_;
};

} // namespace detail

/** Parse @p text as one JSON document. */
inline ParseResult
parse(const std::string &text)
{
    return detail::Parser(text).run();
}

} // namespace json
} // namespace cereal

#endif // CEREAL_SIM_JSON_PARSE_HH
