/// \file knobs.hpp
/// \brief The one parser for every `MFTI_*` environment knob, numeric
/// header value and command-line number.
///
/// Every parser reads the whole string or rejects it: no sign, no
/// surrounding whitespace, no base prefix, no trailing text, no overflow
/// (docs/operations.md "Knob values" states the rules for operators).
///
///   parse_uint    decimal digits only, at most `max`
///   parse_double  a finite decimal number >= 0 (`.5`, `1e6`; never
///                 `nan`, `inf` or an exponent that overflows)
///   parse_bool    `1`/`0`, `on`/`off`, `true`/`false`, `yes`/`no`
///
/// `env_knob(name, &value)` reads one environment variable through the
/// parser of `value`'s type. An unset or empty variable keeps `*value`; a
/// malformed one prints one line to stderr,
/// `[mfti] malformed NAME='...' (want ...); keeping the default ...`, and
/// keeps `*value` too, so a typo never changes behaviour silently.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace mfti::util {

std::optional<std::uint64_t> parse_uint(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

std::optional<double> parse_double(std::string_view text);

std::optional<bool> parse_bool(std::string_view text);

void env_knob(const char* name, std::size_t* value,
              std::size_t max = std::numeric_limits<std::size_t>::max());
void env_knob(const char* name, double* value);
void env_knob(const char* name, bool* value);
/// Any non-empty value is taken as is.
void env_knob(const char* name, std::string* value);

}  // namespace mfti::util
