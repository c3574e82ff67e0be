#include "svc/json.hpp"

#include <charconv>
#include <cmath>

namespace reconf::svc::json {

namespace {

/// Nesting cap: a recursive consumer would otherwise turn "[[[[..." into a
/// stack overflow — a one-line denial of service against the serving tier.
/// Far above anything the request schema needs.
constexpr int kMaxDepth = 64;

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

}  // namespace

void Reader::fail(const char* what) const {
  throw JsonError("json error at byte " + std::to_string(cur_ - begin_) +
                  ": " + what);
}

void Reader::fail(const std::string& what) const { fail(what.c_str()); }

void Reader::fail_expected(char c) const {
  fail(std::string("expected '") + c + "'");
}

void Reader::skip_ws() noexcept {
  while (cur_ != end_ &&
         (*cur_ == ' ' || *cur_ == '\t' || *cur_ == '\n' || *cur_ == '\r')) {
    ++cur_;
  }
}

char Reader::peek() {
  skip_ws();
  if (cur_ == end_) fail("unexpected end of input");
  return *cur_;
}

void Reader::expect(char c) {
  if (peek() != c) fail_expected(c);
  ++cur_;
}

void Reader::enter() {
  if (++depth_ > kMaxDepth) fail("nesting too deep");
  first_ = true;
}

Value::Kind Reader::next_kind() {
  switch (peek()) {
    case '{': return Value::Kind::kObject;
    case '[': return Value::Kind::kArray;
    case '"': return Value::Kind::kString;
    case 't':
    case 'f': return Value::Kind::kBool;
    case 'n': return Value::Kind::kNull;
    default: return Value::Kind::kNumber;
  }
}

void Reader::open_object() {
  expect('{');
  enter();
}

bool Reader::next_member(std::string_view& key) {
  if (first_) {
    first_ = false;
    if (peek() == '}') {
      ++cur_;
      --depth_;
      return false;
    }
  } else {
    const char c = peek();
    ++cur_;
    if (c == '}') {
      --depth_;
      return false;
    }
    if (c != ',') fail("expected ',' or '}' in object");
  }
  key = read_string();
  expect(':');
  return true;
}

void Reader::open_array() {
  expect('[');
  enter();
}

bool Reader::next_item() {
  if (first_) {
    first_ = false;
    if (peek() != ']') return true;
    ++cur_;
    --depth_;
    return false;
  }
  const char c = peek();
  ++cur_;
  if (c == ']') {
    --depth_;
    return false;
  }
  if (c != ',') fail("expected ',' or ']' in array");
  return true;
}

std::string_view Reader::read_string() {
  if (peek() != '"') fail("expected string");
  const char* const start = ++cur_;
  const char* const stop = plain_run(start);
  if (stop != end_ && *stop == '"') {
    cur_ = stop + 1;
    return {start, static_cast<std::size_t>(stop - start)};
  }
  scratch_.assign(start, stop);
  cur_ = stop;
  read_string_rest(scratch_);
  return scratch_;
}

const char* Reader::plain_run(const char* from) const noexcept {
  while (from != end_ && *from != '"' && *from != '\\' &&
         static_cast<unsigned char>(*from) >= 0x20) {
    ++from;
  }
  return from;
}

void Reader::read_string_rest(std::string& out) {
  while (cur_ != end_) {
    const char* const stop = plain_run(cur_);
    out.append(cur_, stop);
    cur_ = stop;
    if (cur_ == end_) break;
    const char c = *cur_++;
    if (c == '"') return;
    if (c != '\\') fail("raw control character in string");
    if (cur_ == end_) break;
    const char esc = *cur_++;
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': append_unicode_escape(out); break;
      default: fail("invalid escape sequence");
    }
  }
  fail("unterminated string");
}

void Reader::append_unicode_escape(std::string& out) {
  if (end_ - cur_ < 4) fail("truncated \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = *cur_++;
    code <<= 4;
    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
    else fail("invalid hex digit in \\u escape");
  }
  if (code >= 0xD800 && code <= 0xDFFF) {
    fail("surrogate \\u escapes are not supported");
  }
  // UTF-8 encode the BMP code point.
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

bool Reader::read_bool() {
  peek();
  const std::string_view rest(cur_, static_cast<std::size_t>(end_ - cur_));
  if (rest.substr(0, 4) == "true") {
    cur_ += 4;
    return true;
  }
  if (rest.substr(0, 5) == "false") {
    cur_ += 5;
    return false;
  }
  fail("invalid literal");
}

void Reader::read_null() {
  peek();
  const std::string_view rest(cur_, static_cast<std::size_t>(end_ - cur_));
  if (rest.substr(0, 4) != "null") fail("invalid literal");
  cur_ += 4;
}

Number Reader::read_number() {
  if (is_digit(peek())) {
    // A plain digit run that fits i64 reads the same through from_chars as
    // through stoll, and its double is the value stod would round to. A
    // longer run, or one that a number byte continues, is a general token.
    Number n;
    const auto [stop, ec] = std::from_chars(cur_, end_, n.integer);
    if (ec == std::errc{} &&
        (stop == end_ || (*stop != '.' && *stop != 'e' && *stop != 'E' &&
                          *stop != '+' && *stop != '-'))) {
      cur_ = stop;
      n.value = static_cast<double>(n.integer);
      n.integral = true;
      return n;
    }
  }
  return read_number_token();
}

Number Reader::read_number_token() {
  const char* const start = cur_;
  if (*cur_ == '-') ++cur_;
  bool digits = false;
  bool real = false;
  while (cur_ != end_) {
    const char c = *cur_;
    if (is_digit(c)) {
      digits = true;
      ++cur_;
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      real = real || c == '.' || c == 'e' || c == 'E';
      ++cur_;
    } else {
      break;
    }
  }
  if (!digits) fail("invalid number");
  const std::string token(start, cur_);
  Number n;
  try {
    std::size_t used = 0;
    n.value = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    fail("unparsable number '" + token + "'");
  }
  if (!std::isfinite(n.value)) fail("non-finite number '" + token + "'");
  if (!real) {
    try {
      std::size_t used = 0;
      n.integer = std::stoll(token, &used);
      n.integral = used == token.size();
    } catch (const std::exception&) {
      n.integer = 0;
      n.integral = false;  // integer-looking but overflows i64
    }
  }
  return n;
}

void Reader::skip_value() {
  switch (next_kind()) {
    case Value::Kind::kObject:
      open_object();
      for (std::string_view key; next_member(key);) skip_value();
      return;
    case Value::Kind::kArray:
      open_array();
      while (next_item()) skip_value();
      return;
    case Value::Kind::kString: (void)read_string(); return;
    case Value::Kind::kBool: (void)read_bool(); return;
    case Value::Kind::kNull: read_null(); return;
    case Value::Kind::kNumber: (void)read_number(); return;
  }
}

void Reader::finish() {
  skip_ws();
  if (cur_ != end_) fail("trailing characters after JSON value");
}

namespace {

Value build(Reader& r) {
  Value v;
  v.kind = r.next_kind();
  switch (v.kind) {
    case Value::Kind::kObject: {
      r.open_object();
      for (std::string_view key; r.next_member(key);) {
        std::string name(key);
        Value member = build(r);
        v.members.emplace_back(std::move(name), std::move(member));
      }
      break;
    }
    case Value::Kind::kArray:
      r.open_array();
      while (r.next_item()) v.items.push_back(build(r));
      break;
    case Value::Kind::kString: v.text = r.read_string(); break;
    case Value::Kind::kBool: v.boolean = r.read_bool(); break;
    case Value::Kind::kNull: r.read_null(); break;
    case Value::Kind::kNumber: {
      const Number n = r.read_number();
      v.number = n.value;
      v.integer = n.integer;
      v.integral = n.integral;
      break;
    }
  }
  return v;
}

}  // namespace

const Value* Value::find(const std::string& key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value parse(const std::string& src) {
  Reader r(src);
  Value v = build(r);
  r.finish();
  return v;
}

}  // namespace reconf::svc::json
