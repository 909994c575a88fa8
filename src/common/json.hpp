#pragma once
/// \file json.hpp
/// \brief Dependency-free JSON kernel: one pull reader, one streaming
/// writer, and the json::Value DOM built on top of them.
///
/// The planning front door speaks JSON-lines (io/wire.hpp, `adept serve`),
/// and the plan cache keys requests by their canonical wire form — both
/// need a small, exact JSON kernel rather than a third-party library:
///
///   - Numbers are written with the shortest representation that parses
///     back to the identical double (std::to_chars), so
///     parse(dump(x)) == x holds bit-for-bit and canonical dumps are
///     stable fingerprint material. Non-finite numbers are rejected by
///     the writer (JSON cannot carry them); wire.cpp encodes the one
///     domain value that needs them (unlimited demand) symbolically.
///   - Objects preserve insertion order, so a serializer that always
///     emits keys in one order produces one canonical byte string.
///   - The reader is strict (complete-input, no trailing garbage,
///     duplicate keys rejected by every consumer) and reports 1-based
///     line/column on malformed input, matching the platform-file
///     parser's error style.
///
/// Grammar, nesting cap, error text, number format and escape format
/// each exist exactly once: json::parse builds its DOM through Reader,
/// and Value::dump writes through Writer. The hot wire codecs
/// (io/wire.hpp) drive Reader and Writer directly, so a request is
/// decoded and an answer or cache key encoded without a DOM.

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adept::json {

/// One JSON value: null, bool, number (double), string, array or object.
class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<Value>;
  /// Insertion-ordered key→value sequence (keys unique, writer emits in
  /// stored order — the canonical-form property the cache relies on).
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() = default;  ///< null
  Value(std::nullptr_t) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(double n) : type_(Type::Number), number_(n) {}
  Value(int n) : type_(Type::Number), number_(n) {}
  Value(long long n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Value(std::size_t n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Value(const char* s) : type_(Type::String), string_(s) {}
  Value(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Value(Array items) : type_(Type::Array), array_(std::move(items)) {}

  static Value array() { return Value(Array{}); }
  static Value object() {
    Value v;
    v.type_ = Type::Object;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors; throw adept::Error naming the actual type on a
  /// mismatch (wire deserializers lean on this for schema errors).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// as_number() narrowed to a non-negative integer; throws when the
  /// value is negative, non-integral or out of std::size_t range.
  std::size_t as_index() const;

  // -- array building ------------------------------------------------------
  void push_back(Value item);

  // -- object access -------------------------------------------------------
  /// Member lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  /// Member lookup; throws adept::Error when absent.
  const Value& at(std::string_view key) const;
  /// Inserts or replaces a member (insertion order kept on replace).
  void set(std::string key, Value value);

  bool operator==(const Value& other) const;

  /// Serialises to the canonical compact form (no whitespace, object keys
  /// in stored order, shortest round-trip numbers). Throws adept::Error
  /// on non-finite numbers.
  std::string dump() const;

 private:
  friend class Reader;
  friend class Writer;

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Streaming canonical writer: the one place JSON text is formatted.
/// Calls mirror the document's structure — begin/end for containers,
/// key() before each object member's value — and commas are inserted
/// automatically. Output is compact, numbers are shortest round-trip,
/// strings escape '"', '\\', \b \f \n \r \t and every other control byte
/// as lower-case \u00xx; all other bytes (UTF-8 included) pass through.
class Writer {
 public:
  /// Appends to `out`.
  explicit Writer(std::string& out) : out_(&out) {}

  Writer(const Writer&) = delete;             ///< Non-copyable.
  Writer& operator=(const Writer&) = delete;  ///< Non-copyable.

  Writer& begin_object();  ///< Opens an object.
  Writer& end_object();    ///< Closes the innermost object.
  Writer& begin_array();   ///< Opens an array.
  Writer& end_array();     ///< Closes the innermost array.
  /// Writes an object member's key; the member's value is written next.
  Writer& key(std::string_view name);

  Writer& null();                       ///< Writes null.
  Writer& boolean(bool b);              ///< Writes true or false.
  /// Writes a finite number; throws adept::Error on NaN or infinity.
  Writer& number(double n);
  /// Writes a count or index exactly as number(double(n)) — and so as
  /// Value(std::size_t) — does: 900000 is written 9e+05. Below 2^53 it
  /// takes an integer fast path to the same bytes.
  Writer& index(std::size_t n);
  Writer& string(std::string_view s);   ///< Writes an escaped string.
  Writer& value(const Value& v);        ///< Writes a whole DOM value.

 private:
  void separate();  ///< Emits the comma owed before the next item.
  void emitted();   ///< Marks an item complete.

  std::string* out_;
  bool need_comma_ = false;
};

/// Strict pull reader over one JSON document. Each typed read consumes
/// one value of the named kind. A value of another kind throws the DOM
/// accessors' own adept::Error ("JSON value is string, expected
/// number"), index() as_index()'s, and malformed input a parse error with
/// a 1-based line:column — so a decoder over the reader fails with the
/// text a walk over json::parse's DOM would. Containers are walked with
/// begin_*() and then next_item() / next_key() until they return false:
///
///   reader.begin_object();
///   std::string_view key;
///   while (reader.next_key(key)) { ... read the member's value ... }
///
/// The reader checks the grammar; rejecting duplicate keys is the
/// consumer's job (value() does it, like every wire decoder).
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Kind of the next value, without consuming it.
  Value::Type peek();

  void null();        ///< Reads null.
  bool boolean();     ///< Reads true or false.
  double number();    ///< Reads a number.
  /// Reads a number that must be a non-negative integer (as_index rules
  /// and error).
  std::size_t index();
  /// Reads a string, unescaped. The view is valid until the next read.
  std::string_view string();

  void begin_array();  ///< Enters an array.
  /// Advances to the array's next element; false (and leaves the array)
  /// at its end.
  bool next_item();
  void begin_object();  ///< Enters an object.
  /// Reads the object's next key (unescaped, valid until the next read);
  /// false (and leaves the object) at its end.
  bool next_key(std::string_view& key);

  /// Reads the next value of any kind into a DOM; rejects duplicate keys.
  Value value();
  /// Reads and discards the next value, with value()'s checks.
  void skip() { value(); }
  /// Requires that only whitespace is left.
  void end();

  /// Throws adept::Error "JSON parse error at L:C: message" at the
  /// current position.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  bool eof() const { return pos_ >= text_.size(); }
  char current() const { return text_[pos_]; }
  void skip_whitespace();
  void expect(char c);
  bool consume_literal(std::string_view literal);
  Value::Type peek_unchecked();
  double read_number();
  std::string_view read_string();
  void append_unicode_escape();
  unsigned parse_hex4();
  void enter();
  Value read_array();
  Value read_object();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  bool after_key_ = false;  ///< A key was read; its ':' is still due.
  bool fresh_ = false;      ///< A container was just entered.
  std::string scratch_;     ///< Unescaped text of the last escaped string.
};

/// Parses exactly one JSON document (trailing whitespace allowed, other
/// trailing input is an error). Throws adept::Error with 1-based
/// line:column on malformed input.
Value parse(std::string_view text);

/// Escapes and quotes a string the way dump() does.
std::string quote(std::string_view s);

}  // namespace adept::json
