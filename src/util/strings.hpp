// Small string utilities used by the Knowledge Base key encoding and the
// configuration / rule-file parsers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kalis {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins with a single-character separator.
std::string join(const std::vector<std::string>& parts, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

std::string toLower(std::string_view s);

/// Strict integer / double / bool parsing: the whole string must be consumed.
std::optional<long long> parseInt(std::string_view s);
std::optional<double> parseDouble(std::string_view s);
std::optional<bool> parseBool(std::string_view s);

/// Outcome of applying one key=value pair of a spec (see parseSpec).
enum class SpecKey : std::uint8_t { kApplied, kBadValue, kUnknown };

/// Parses the "[preset,]key=value,..." syntax of the fault and evasion
/// plans: comma-separated parts, trimmed, empty ones skipped. The first part
/// may name a preset, which `preset` accepts by returning true; every other
/// part goes to `applyKey`. On the first malformed part, returns false and
/// fills `error` (when non-null); unknown keys are reported as
/// "unknown <kind> key".
bool parseSpec(
    std::string_view spec, std::string_view kind,
    const std::function<bool(std::string_view name)>& preset,
    const std::function<SpecKey(std::string_view key, std::string_view value)>&
        applyKey,
    std::string* error);

/// Formats a double compactly for knowgget values ("0.037", "12", "-67.5").
std::string formatDouble(double v);

}  // namespace kalis
