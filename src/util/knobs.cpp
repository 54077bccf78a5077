#include "util/knobs.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace mfti::util {

namespace {

/// The value of `name`, or nullptr when it is unset or empty: both keep
/// the default.
const char* env_text(const char* name) {
  const char* text = std::getenv(name);
  return text == nullptr || *text == '\0' ? nullptr : text;
}

void report_malformed(const char* name, const char* text,
                      const std::string& want, const std::string& kept) {
  std::fprintf(stderr,
               "[mfti] malformed %s='%s' (want %s); keeping the default "
               "%s\n",
               name, text, want.c_str(), kept.c_str());
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t max) {
  const char* const last = text.data() + text.size();
  std::uint64_t value = 0;
  // Base-10 from_chars into an unsigned type reads digits only: a sign,
  // whitespace or `0x` stops it before `last`, and overflow sets `ec`.
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || value > max) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  // from_chars accepts a leading '-'; `-0` would pass a `>= 0` test.
  if (text.starts_with('-')) return std::nullopt;
  const char* const last = text.data() + text.size();
  double value = 0.0;
  // No whitespace, '+' or hex in the general format; `1e999` sets `ec`,
  // `nan` and `inf` parse and fail the finiteness test.
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> parse_bool(std::string_view text) {
  if (text == "1" || text == "on" || text == "true" || text == "yes") {
    return true;
  }
  if (text == "0" || text == "off" || text == "false" || text == "no") {
    return false;
  }
  return std::nullopt;
}

void env_knob(const char* name, std::size_t* value, std::size_t max) {
  const char* text = env_text(name);
  if (text == nullptr) return;
  if (const auto parsed = parse_uint(text, max)) {
    *value = static_cast<std::size_t>(*parsed);
    return;
  }
  report_malformed(name, text,
                   max == std::numeric_limits<std::size_t>::max()
                       ? "a decimal integer >= 0"
                       : "a decimal integer 0.." + std::to_string(max),
                   std::to_string(*value));
}

void env_knob(const char* name, double* value) {
  const char* text = env_text(name);
  if (text == nullptr) return;
  if (const auto parsed = parse_double(text)) {
    *value = *parsed;
    return;
  }
  char kept[32];
  std::snprintf(kept, sizeof kept, "%g", *value);
  report_malformed(name, text, "a finite number >= 0", kept);
}

void env_knob(const char* name, bool* value) {
  const char* text = env_text(name);
  if (text == nullptr) return;
  if (const auto parsed = parse_bool(text)) {
    *value = *parsed;
    return;
  }
  report_malformed(name, text, "1/0, on/off, true/false or yes/no",
                   *value ? "on" : "off");
}

void env_knob(const char* name, std::string* value) {
  if (const char* text = env_text(name)) *value = text;
}

}  // namespace mfti::util
