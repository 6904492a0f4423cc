// Small string helpers used by the SWF/trace parsers and table writers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bgl {

/// Strip ASCII whitespace from both ends.
std::string trim(std::string_view text);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view text);

/// Split on a single delimiter character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Split on runs of whitespace; drops empty fields (SWF-style tokenising).
std::vector<std::string> split_ws(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Strict numeric parsing: the full token must be consumed.
std::optional<long long> parse_int(std::string_view token);
std::optional<double> parse_double(std::string_view token);

/// Command-line flag values, parsed strictly: the full token must be an
/// integer, or a finite number (parse_double accepts "nan" and "inf", which
/// would slip through every range check). Otherwise throws ConfigError
/// naming the flag and the token.
long long require_int(std::string_view flag, std::string_view token);
double require_double(std::string_view flag, std::string_view token);

/// An int-typed flag value: require_int, then a check that it lies in
/// [lo, hi] before it is narrowed, so an out-of-range value (say 2^32 + 1)
/// is refused instead of wrapping. Throws ConfigError naming the flag.
int require_int(std::string_view flag, std::string_view token, int lo, int hi);

/// printf-like double formatting with fixed precision.
std::string format_double(double value, int precision);

/// Human-readable duration like "2d 03:04:05" for report output.
std::string format_duration(double seconds);

/// Build stamp for checked-in bench artifacts (docs/BENCH_*.json): the
/// BGL_GIT_DESCRIBE environment variable — set by CI / the bench invocation
/// to `git describe --always --dirty` — sanitized to [A-Za-z0-9._/+-] so it
/// can be embedded in JSON unescaped, or "unknown" when unset.
std::string artifact_stamp();

}  // namespace bgl
