/**
 * @file
 * Minimal JSON value type, parser, and writer for the solve service.
 *
 * The service speaks JSONL (one JSON object per line) on its request and
 * result streams, and the benchmark reports are JSON documents. The repo
 * deliberately has no third-party dependencies beyond the test/bench
 * frameworks, so this is a small self-contained implementation: full
 * JSON grammar on input (objects, arrays, strings with escapes, numbers,
 * booleans, null), round-trip-exact doubles on output. Object members
 * preserve insertion order, which keeps emitted result lines stable and
 * diffable.
 */

#ifndef CHOCOQ_SERVICE_JSON_HPP
#define CHOCOQ_SERVICE_JSON_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace chocoq::service
{

/** One JSON value (tagged union over the six JSON kinds). */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Json() = default;
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(double v) : kind_(Kind::Number), number_(v) {}
    Json(int v) : kind_(Kind::Number), number_(v) {}
    Json(std::int64_t v)
        : kind_(Kind::Number), number_(static_cast<double>(v))
    {}
    Json(const char *s) : kind_(Kind::String), string_(s) {}
    Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

    static Json array();
    static Json object();

    /**
     * Parse one JSON document. Throws FatalError (with position info) on
     * malformed input or trailing garbage.
     */
    static Json parse(const std::string &text);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Object member by key, or nullptr (also for non-objects). */
    const Json *find(const std::string &key) const;

    /** Typed accessors with defaults (wrong kind returns the default). */
    bool asBool(bool fallback = false) const;
    double asNumber(double fallback = 0.0) const;
    std::string asString(std::string fallback = "") const;

    /** Object member lookup + typed access in one step. */
    bool getBool(const std::string &key, bool fallback) const;
    double getNumber(const std::string &key, double fallback) const;
    std::string getString(const std::string &key,
                          std::string fallback) const;

    /** Append to an array value (converts a Null value to an array). */
    Json &push(Json v);
    /** Set an object member (converts a Null value to an object). */
    Json &set(const std::string &key, Json v);

    const std::vector<Json> &items() const { return array_; }
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return object_;
    }

    /** Compact single-line serialization (JSONL-friendly). */
    std::string dump() const;

  private:
    void write(std::string &out) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/** @p v's JSON type with its article ("a string", "null"), for errors
 * that say what a field got. */
const char *typeName(const Json &v);

} // namespace chocoq::service

#endif // CHOCOQ_SERVICE_JSON_HPP
