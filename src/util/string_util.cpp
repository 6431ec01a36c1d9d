#include "src/util/string_util.hpp"

#include <cctype>
#include <cstdio>

namespace hdtn {

std::string toLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::vector<std::string> splitTokens(std::string_view s,
                                     std::string_view delims) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t end = s.find_first_of(delims, start);
    const std::size_t stop = (end == std::string_view::npos) ? s.size() : end;
    if (stop > start) out.emplace_back(s.substr(start, stop - start));
    start = stop + 1;
  }
  return out;
}

std::vector<std::string> keywordTokens(std::string_view s) {
  const std::string lowered = toLower(s);
  return splitTokens(lowered, " \t\r\n,.;:!?()[]{}\"'/-_");
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  std::size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string formatTime(SimTime t) {
  const SimTime day = t / kDay;
  SimTime rem = t % kDay;
  if (rem < 0) rem += kDay;
  const int h = static_cast<int>(rem / kHour);
  const int m = static_cast<int>((rem % kHour) / kMinute);
  const int s = static_cast<int>(rem % kMinute);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "d%lld %02d:%02d:%02d",
                static_cast<long long>(day), h, m, s);
  return buf;
}

}  // namespace hdtn
