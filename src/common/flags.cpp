#include "common/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace reconf {

bool detail::parse_magnitude(std::string_view text, bool& negative,
                             std::uint64_t& magnitude) noexcept {
  negative = text.starts_with('-');
  if (negative || text.starts_with('+')) text.remove_prefix(1);
  const bool hex = text.starts_with("0x") || text.starts_with("0X");
  if (hex) text.remove_prefix(2);
  // from_chars would accept a second '-'; the sign above is the only one.
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, magnitude, hex ? 16 : 10);
  return ec == std::errc() && ptr == end;
}

void invalid_flag_value(std::string_view name, std::string_view value) {
  std::fprintf(stderr, "invalid value for --%.*s: '%.*s'\n",
               static_cast<int>(name.size()), name.data(),
               static_cast<int>(value.size()), value.data());
  std::exit(2);
}

std::optional<std::string> flag_str(const std::vector<std::string>& args,
                                    std::string_view name) {
  const std::string prefix = "--" + std::string(name) + "=";
  for (const std::string& a : args) {
    if (a.starts_with(prefix)) return a.substr(prefix.size());
  }
  return std::nullopt;
}

bool has_flag(const std::vector<std::string>& args, std::string_view name) {
  return std::find(args.begin(), args.end(), "--" + std::string(name)) !=
         args.end();
}

std::optional<double> flag_double(const std::vector<std::string>& args,
                                  std::string_view name, double min) {
  const std::optional<std::string> text = flag_str(args, name);
  if (!text) return std::nullopt;
  const std::string_view digits =
      std::string_view(*text).substr(text->starts_with('+') ? 1 : 0);
  double value = 0.0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, value);
  if (digits.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value) || value < min) {
    invalid_flag_value(name, *text);
  }
  return value;
}

bool known_flag(std::string_view arg,
                std::initializer_list<std::string_view> known) {
  return std::any_of(known.begin(), known.end(), [arg](std::string_view k) {
    return k.ends_with('=') ? arg.starts_with(k) : arg == k;
  });
}

}  // namespace reconf
