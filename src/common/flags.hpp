#pragma once

// The `--name=VALUE` and bare `--name` flags of every command-line tool: one
// parser, so each value is read, checked and reported the same way.

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace reconf {

namespace detail {
/// Sign and magnitude of all of `text`: an optional sign, then decimal
/// digits or `0x`/`0X` and hex digits. False on anything else.
[[nodiscard]] bool parse_magnitude(std::string_view text, bool& negative,
                                   std::uint64_t& magnitude) noexcept;
}  // namespace detail

/// All of `text` as an Int, read as parse_magnitude says; a leading zero
/// never means octal ("010" is ten). nullopt when it does not parse or fit.
template <class Int>
[[nodiscard]] std::optional<Int> parse_int(std::string_view text) noexcept {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<Int>::max());
  bool negative = false;
  std::uint64_t magnitude = 0;
  if (!detail::parse_magnitude(text, negative, magnitude)) return std::nullopt;
  if (!negative || magnitude == 0) {
    if (magnitude > kMax) return std::nullopt;
    return static_cast<Int>(magnitude);
  }
  if constexpr (std::is_signed_v<Int>) {
    if (magnitude - 1 <= kMax) {
      return static_cast<Int>(-static_cast<Int>(magnitude - 1) - 1);
    }
  }
  return std::nullopt;
}

/// Prints `invalid value for --NAME: 'VALUE'` and exits with status 2: a
/// mistyped value stops the tool instead of falling back to a default.
[[noreturn]] void invalid_flag_value(std::string_view name,
                                     std::string_view value);

/// The value of the first `--name=V` in `args`, nullopt when absent.
[[nodiscard]] std::optional<std::string> flag_str(
    const std::vector<std::string>& args, std::string_view name);

/// True when `args` holds the bare `--name`.
[[nodiscard]] bool has_flag(const std::vector<std::string>& args,
                            std::string_view name);

/// `--name=V` read by parse_int<Int>, nullopt when absent; a V that does not
/// parse or is below `min` goes to invalid_flag_value.
template <class Int = long long>
[[nodiscard]] std::optional<Int> flag_int(
    const std::vector<std::string>& args, std::string_view name,
    Int min = std::numeric_limits<Int>::min()) {
  const std::optional<std::string> text = flag_str(args, name);
  if (!text) return std::nullopt;
  const std::optional<Int> value = parse_int<Int>(*text);
  if (!value || *value < min) invalid_flag_value(name, *text);
  return value;
}

/// `--name=V` as a finite decimal number, with flag_int's checks.
[[nodiscard]] std::optional<double> flag_double(
    const std::vector<std::string>& args, std::string_view name,
    double min = std::numeric_limits<double>::lowest());

/// True when `arg` is one of `known` ("--name=" entries match any
/// `--name=V`; bare "--name" entries match only themselves).
[[nodiscard]] bool known_flag(std::string_view arg,
                              std::initializer_list<std::string_view> known);

}  // namespace reconf
