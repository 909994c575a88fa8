#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <system_error>

#include "common/error.hpp"

namespace adept::json {

namespace {

const char* type_name(Value::Type type) {
  switch (type) {
    case Value::Type::Null: return "null";
    case Value::Type::Bool: return "bool";
    case Value::Type::Number: return "number";
    case Value::Type::String: return "string";
    case Value::Type::Array: return "array";
    case Value::Type::Object: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* wanted, Value::Type got) {
  throw Error(std::string("JSON value is ") + type_name(got) + ", expected " +
              wanted);
}

/// as_index's domain: a non-negative integer a double holds exactly.
bool is_index(double n) {
  return n >= 0.0 && std::floor(n) == n && n <= 9.007199254740992e15;
}

void write_escaped(std::string_view s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  // Append clean runs in one go; only the bytes that need an escape
  // break a run.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);  // UTF-8 passes verbatim
  out += '"';
}

void write_number(double value, std::string& out) {
  ADEPT_CHECK(std::isfinite(value),
              "JSON cannot represent a non-finite number");
  char buffer[32];
  // Shortest representation that round-trips to the identical double —
  // the property the wire round-trip tests and the canonical cache
  // fingerprints depend on.
  const auto result =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  ADEPT_ASSERT(result.ec == std::errc(), "number formatting failed");
  out.append(buffer, result.ptr);
}

/// Containers deeper than this fail to parse. Building a DOM spends
/// stack per nesting level; without a ceiling one hostile line
/// ("[[[[...") would overflow the stack of whatever is serving.
constexpr std::size_t kMaxDepth = 192;

}  // namespace

// ------------------------------------------------------------------ Value --

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::Number) type_error("number", type_);
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const Value::Array& Value::as_array() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

const Value::Object& Value::as_object() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

std::size_t Value::as_index() const {
  const double n = as_number();
  ADEPT_CHECK(is_index(n), "JSON number is not a non-negative integer index");
  return static_cast<std::size_t>(n);
}

void Value::push_back(Value item) {
  if (type_ != Type::Array) type_error("array", type_);
  array_.push_back(std::move(item));
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (type_ != Type::Object) type_error("object", type_);
  const Value* found = find(key);
  ADEPT_CHECK(found != nullptr,
              "JSON object is missing key '" + std::string(key) + "'");
  return *found;
}

void Value::set(std::string key, Value value) {
  if (type_ != Type::Object) type_error("object", type_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Number: return number_ == other.number_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
  }
  return false;
}

std::string Value::dump() const {
  std::string out;
  Writer(out).value(*this);
  return out;
}

// ----------------------------------------------------------------- Writer --

void Writer::separate() {
  if (need_comma_) *out_ += ',';
}

void Writer::emitted() { need_comma_ = true; }

Writer& Writer::begin_object() {
  separate();
  *out_ += '{';
  need_comma_ = false;
  return *this;
}

Writer& Writer::end_object() {
  *out_ += '}';
  emitted();
  return *this;
}

Writer& Writer::begin_array() {
  separate();
  *out_ += '[';
  need_comma_ = false;
  return *this;
}

Writer& Writer::end_array() {
  *out_ += ']';
  emitted();
  return *this;
}

Writer& Writer::key(std::string_view name) {
  separate();
  write_escaped(name, *out_);
  *out_ += ':';
  need_comma_ = false;
  return *this;
}

Writer& Writer::null() {
  separate();
  *out_ += "null";
  emitted();
  return *this;
}

Writer& Writer::boolean(bool b) {
  separate();
  *out_ += b ? "true" : "false";
  emitted();
  return *this;
}

Writer& Writer::number(double n) {
  separate();
  write_number(n, *out_);
  emitted();
  return *this;
}

Writer& Writer::index(std::size_t n) {
  // Below 2^53 the double is the integer itself, and its shortest
  // round-trip digits are the integer's digits less trailing zeros.
  // to_chars prints the scientific form ("9e+05", "1.2e+07") only when
  // it is strictly shorter than the plain one, ties going to plain.
  if (n >= (std::size_t{1} << 53)) return number(static_cast<double>(n));
  separate();
  char digits[20];
  const std::size_t length = static_cast<std::size_t>(
      std::to_chars(digits, digits + sizeof digits, n).ptr - digits);
  std::size_t significant = length;
  while (significant > 1 && digits[significant - 1] == '0') --significant;
  // "D" or "D.DDD", then "e+XX": the exponent is length - 1 < 16.
  const std::size_t scientific = (significant == 1 ? 1 : significant + 1) + 4;
  if (scientific < length) {
    *out_ += digits[0];
    if (significant > 1) {
      *out_ += '.';
      out_->append(digits + 1, significant - 1);
    }
    const std::size_t exponent = length - 1;
    const char tail[] = {'e', '+', static_cast<char>('0' + exponent / 10),
                         static_cast<char>('0' + exponent % 10)};
    out_->append(tail, sizeof tail);
  } else {
    out_->append(digits, length);
  }
  emitted();
  return *this;
}

Writer& Writer::string(std::string_view s) {
  separate();
  write_escaped(s, *out_);
  emitted();
  return *this;
}

Writer& Writer::value(const Value& v) {
  switch (v.type_) {
    case Value::Type::Null: return null();
    case Value::Type::Bool: return boolean(v.bool_);
    case Value::Type::Number: return number(v.number_);
    case Value::Type::String: return string(v.string_);
    case Value::Type::Array:
      begin_array();
      for (const Value& item : v.array_) value(item);
      return end_array();
    case Value::Type::Object:
      begin_object();
      for (const auto& [name, member] : v.object_) key(name).value(member);
      return end_object();
  }
  return *this;
}

// ----------------------------------------------------------------- Reader --

void Reader::fail(const std::string& message) const {
  std::size_t line = 1, column = 1;
  for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
    if (text_[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  throw Error("JSON parse error at " + std::to_string(line) + ":" +
              std::to_string(column) + ": " + message);
}

void Reader::skip_whitespace() {
  while (!eof() && (current() == ' ' || current() == '\t' ||
                    current() == '\n' || current() == '\r'))
    ++pos_;
}

void Reader::expect(char c) {
  if (eof() || current() != c)
    fail(std::string("expected '") + c + "'" +
         (eof() ? " but input ended" : ""));
  ++pos_;
}

bool Reader::consume_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

Value::Type Reader::peek() {
  if (after_key_) {
    skip_whitespace();
    expect(':');
    after_key_ = false;
  }
  skip_whitespace();
  if (eof()) fail("unexpected end of input");
  return peek_unchecked();
}

Value::Type Reader::peek_unchecked() {
  switch (current()) {
    case 'n': return Value::Type::Null;
    case 't':
    case 'f': return Value::Type::Bool;
    case '"': return Value::Type::String;
    case '[': return Value::Type::Array;
    case '{': return Value::Type::Object;
    default: return Value::Type::Number;
  }
}

void Reader::null() {
  peek();
  if (!consume_literal("null")) fail("bad literal");
}

bool Reader::boolean() {
  peek();
  if (current() == 't' && consume_literal("true")) return true;
  if (current() == 'f' && consume_literal("false")) return false;
  fail("bad literal");
}

double Reader::number() {
  peek();
  return read_number();
}

std::size_t Reader::index() {
  const double n = number();
  if (!is_index(n)) fail("number is not a non-negative integer index");
  return static_cast<std::size_t>(n);
}

std::string_view Reader::string() {
  peek();
  return read_string();
}

double Reader::read_number() {
  const auto digit = [this] {
    return !eof() && current() >= '0' && current() <= '9';
  };
  // Enforce the JSON number grammar ('-'? int frac? exp?, no leading
  // zeros) before handing the span to from_chars, which is laxer.
  const std::size_t start = pos_;
  if (!eof() && current() == '-') ++pos_;
  if (!digit()) {
    pos_ = start;
    fail("malformed number");
  }
  if (current() == '0') {
    ++pos_;
    if (digit()) {
      pos_ = start;
      fail("number has a leading zero");
    }
  } else {
    while (digit()) ++pos_;
  }
  bool fraction_or_exponent = false;
  if (!eof() && current() == '.') {
    fraction_or_exponent = true;
    ++pos_;
    if (!digit()) {
      pos_ = start;
      fail("malformed number");
    }
    while (digit()) ++pos_;
  }
  if (!eof() && (current() == 'e' || current() == 'E')) {
    fraction_or_exponent = true;
    ++pos_;
    if (!eof() && (current() == '+' || current() == '-')) ++pos_;
    if (!digit()) {
      pos_ = start;
      fail("malformed number");
    }
    while (digit()) ++pos_;
  }
  const char* begin = text_.data() + start;
  const char* end = text_.data() + pos_;
  // A plain integer of at most 15 digits is below 2^53, so the double
  // from_chars would round it to is the integer itself.
  if (!fraction_or_exponent) {
    const bool negative = *begin == '-';
    const char* digits = begin + (negative ? 1 : 0);
    if (end - digits <= 15) {
      std::uint64_t integer = 0;
      for (const char* c = digits; c != end; ++c)
        integer = integer * 10 + static_cast<std::uint64_t>(*c - '0');
      const auto magnitude = static_cast<double>(integer);
      return negative ? -magnitude : magnitude;
    }
  }
  double value = 0.0;
  const auto result = std::from_chars(begin, end, value);
  if (result.ec != std::errc() || result.ptr != end) {
    pos_ = start;
    fail("malformed number");
  }
  return value;
}

std::string_view Reader::read_string() {
  expect('"');
  // Fast path: a string without escapes is a view into the input.
  const std::size_t start = pos_;
  while (!eof()) {
    const auto c = static_cast<unsigned char>(current());
    if (c == '"') {
      const std::string_view out = text_.substr(start, pos_ - start);
      ++pos_;
      return out;
    }
    if (c == '\\' || c < 0x20) break;
    ++pos_;
  }
  scratch_.assign(text_.data() + start, pos_ - start);
  while (true) {
    if (eof()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return scratch_;
    if (static_cast<unsigned char>(c) < 0x20)
      fail("raw control character in string");
    if (c != '\\') {
      scratch_ += c;
      continue;
    }
    if (eof()) fail("unterminated escape");
    const char escape = text_[pos_++];
    switch (escape) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': append_unicode_escape(); break;
      default: fail("unknown escape sequence");
    }
  }
}

unsigned Reader::parse_hex4() {
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    code <<= 4;
    if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
    else fail("bad hex digit in \\u escape");
  }
  return code;
}

void Reader::append_unicode_escape() {
  std::uint32_t code = parse_hex4();
  if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate
    if (!consume_literal("\\u")) fail("unpaired surrogate");
    const std::uint32_t low = parse_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  } else if (code >= 0xDC00 && code <= 0xDFFF) {
    fail("unpaired surrogate");
  }
  // UTF-8 encode.
  std::string& out = scratch_;
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

void Reader::enter() {
  // Checked at the opening bracket, before it is consumed.
  if (++depth_ > kMaxDepth) fail("nesting too deep");
  ++pos_;
  fresh_ = true;
}

void Reader::begin_array() {
  if (peek() != Value::Type::Array) expect('[');
  enter();
}

bool Reader::next_item() {
  skip_whitespace();
  if (fresh_) {
    fresh_ = false;
    if (eof() || current() != ']') return true;
    ++pos_;
  } else {
    if (eof()) fail("unterminated array");
    if (current() == ',') {
      ++pos_;
      return true;
    }
    expect(']');
  }
  --depth_;
  return false;
}

void Reader::begin_object() {
  if (peek() != Value::Type::Object) expect('{');
  enter();
}

bool Reader::next_key(std::string_view& key) {
  skip_whitespace();
  if (fresh_) {
    fresh_ = false;
    if (!eof() && current() == '}') {
      ++pos_;
      --depth_;
      return false;
    }
  } else {
    if (eof()) fail("unterminated object");
    if (current() != ',') {
      expect('}');
      --depth_;
      return false;
    }
    ++pos_;
    skip_whitespace();
  }
  if (eof() || current() != '"') fail("expected object key string");
  key = read_string();
  after_key_ = true;
  return true;
}

Value Reader::value() {
  switch (peek()) {
    case Value::Type::Null:
      if (!consume_literal("null")) fail("bad literal");
      return Value();
    case Value::Type::Bool: return Value(boolean());
    case Value::Type::Number: return Value(read_number());
    case Value::Type::String: return Value(std::string(read_string()));
    case Value::Type::Array: return read_array();
    case Value::Type::Object: return read_object();
  }
  return Value();
}

Value Reader::read_array() {
  Value out;
  out.type_ = Value::Type::Array;
  enter();
  while (next_item()) out.array_.push_back(value());
  return out;
}

Value Reader::read_object() {
  Value out;
  out.type_ = Value::Type::Object;
  enter();
  std::string_view key;
  while (next_key(key)) {
    if (out.find(key) != nullptr)
      fail("duplicate object key '" + std::string(key) + "'");
    std::string name(key);  // the member's value may reuse scratch_
    Value member = value();
    out.object_.emplace_back(std::move(name), std::move(member));
  }
  return out;
}

void Reader::end() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing input after JSON document");
}

Value parse(std::string_view text) {
  Reader reader(text);
  Value value = reader.value();
  reader.end();
  return value;
}

std::string quote(std::string_view s) {
  std::string out;
  write_escaped(s, out);
  return out;
}

}  // namespace adept::json
