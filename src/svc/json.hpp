#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reconf::svc::json {

/// Thrown on malformed JSON; the message carries the byte offset of the
/// failure ("json error at byte N: ..."). Callers with their own error
/// taxonomy (the NDJSON codec's CodecError, the oracle repro reader) catch
/// and rewrap it.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed JSON value. A tagged struct rather than a variant so consumers
/// can pattern-match with plain field access; only the fields implied by
/// `kind` are meaningful.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  long long integer = 0;
  bool integral = false;  ///< number was written without '.', 'e', fits i64
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// The member named `key`, or nullptr (objects only; first match wins).
  [[nodiscard]] const Value* find(const std::string& key) const noexcept;
};

/// One number token, read with the same rules `Value` records.
struct Number {
  double value = 0.0;
  long long integer = 0;
  bool integral = false;  ///< no '.', 'e' or 'E', and fits i64
};

/// Pull reader over exactly one JSON document: the one JSON grammar of the
/// repo. `parse` builds a `Value` tree through it; the NDJSON request codec
/// reads its schema straight off it without building one. Each call
/// consumes one token or one whole value, or throws JsonError carrying the
/// byte offset of the failure.
///
///   Reader r(text);
///   r.open_object();
///   while (r.next_member(key)) {   // key read, ':' consumed
///     if (key == "n") n = r.read_number(); else r.skip_value();
///   }
///   r.finish();                    // nothing but whitespace may follow
///
/// `next_member`/`next_item` must follow their `open_*` before any other
/// call: the first call of a container tells an empty one from the
/// separator-led rest. A key or string comes back as a view, into the
/// source when it has no escapes and into the reader otherwise; it is valid
/// until the next call. Nesting is capped at 64 containers, so a line of
/// "[[[[..." fails instead of overflowing the stack of a recursive consumer.
/// Numbers are lenient: any run of digits, '.', 'e', 'E', '+' and '-' that
/// std::stod reads whole and finite ("01", "+5").
class Reader {
 public:
  /// `src` must outlive the reader.
  explicit Reader(std::string_view src) noexcept
      : begin_(src.data()), cur_(begin_), end_(begin_ + src.size()) {}

  /// Kind of the next value, judged by its first byte: 't'/'f' is kBool,
  /// 'n' kNull, and any byte that opens no other kind is kNumber (whose
  /// read then rejects it). Throws at end of input.
  [[nodiscard]] Value::Kind next_kind();

  void open_object();
  /// Reads the next member's key and consumes its ':'; the caller then
  /// reads or skips the value. False once '}' is consumed.
  bool next_member(std::string_view& key);

  void open_array();
  /// True when another item follows (the caller reads or skips it); false
  /// once ']' is consumed.
  bool next_item();

  /// Reads a string value, escapes decoded.
  std::string_view read_string();
  bool read_bool();
  void read_null();
  Number read_number();

  /// Consumes the next value of any kind, checking its grammar as fully as
  /// reading it would.
  void skip_value();

  /// Fails unless only whitespace remains.
  void finish();

 private:
  [[noreturn]] void fail(const char* what) const;
  [[noreturn]] void fail(const std::string& what) const;
  [[noreturn, gnu::cold]] void fail_expected(char c) const;
  void skip_ws() noexcept;
  char peek();
  void expect(char c);
  void enter();
  [[nodiscard]] const char* plain_run(const char* from) const noexcept;
  // The general paths of strings and numbers stay out of line, so the
  // plain-token fast paths of the wire's common case need no stack frame.
  [[gnu::noinline]] void read_string_rest(std::string& out);
  void append_unicode_escape(std::string& out);
  [[gnu::noinline]] Number read_number_token();

  const char* begin_;
  const char* cur_;  ///< next unread byte
  const char* end_;
  int depth_ = 0;
  bool first_ = false;   ///< the next next_member/next_item is the first
  std::string scratch_;  ///< decoded text of a string with escapes
};

/// Parses exactly one JSON document (trailing garbage is an error) into a
/// `Value` tree: objects, arrays, strings with escapes (including BMP \u),
/// integer/real numbers, literals. Hand-rolled because the container bakes
/// no JSON dependency. Throws JsonError on malformed input.
[[nodiscard]] Value parse(const std::string& src);

}  // namespace reconf::svc::json
