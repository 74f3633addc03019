#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <utility>

#include "util/types.hpp"

namespace kalis {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string toLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<long long> parseInt(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  long long value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> parseDouble(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is not universally available; use strtod on a
  // bounded copy.
  std::string buf(s);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

std::optional<bool> parseBool(std::string_view s) {
  s = trim(s);
  if (iequals(s, "true") || s == "1") return true;
  if (iequals(s, "false") || s == "0") return false;
  return std::nullopt;
}

bool parseSpec(
    std::string_view spec, std::string_view kind,
    const std::function<bool(std::string_view name)>& preset,
    const std::function<SpecKey(std::string_view key, std::string_view value)>&
        applyKey,
    std::string* error) {
  const auto fail = [error](std::string message) {
    if (error) *error = std::move(message);
    return false;
  };
  bool first = true;
  for (const std::string& rawPart : split(spec, ',')) {
    const std::string_view part = trim(rawPart);
    if (part.empty()) continue;
    // A leading preset name seeds the plan; overrides follow.
    if (std::exchange(first, false) && preset(part)) continue;
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      return fail("expected key=value, got: " + std::string(part));
    }
    const std::string_view key = trim(part.substr(0, eq));
    const std::string_view value = trim(part.substr(eq + 1));
    switch (applyKey(key, value)) {
      case SpecKey::kApplied:
        break;
      case SpecKey::kBadValue:
        return fail("bad value for '" + std::string(key) +
                    "': " + std::string(value));
      case SpecKey::kUnknown:
        return fail("unknown " + std::string(kind) + " key: " +
                    std::string(key));
    }
  }
  return true;
}

std::string formatDouble(double v) {
  // printf's "%.0f" for integral values, "%g" otherwise; std::to_chars with
  // a precision is specified to print exactly as printf does, without the
  // format-string parsing and locale lookup.
  char buf[64];
  const bool integral =
      std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15;
  const auto res =
      integral ? std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 6);
  return std::string(buf, res.ptr);
}

std::string defaultNodeName(NodeId id) {
  return "node" + std::to_string(id);
}

}  // namespace kalis
