#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

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
