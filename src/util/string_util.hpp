// Small string helpers used by the query engine and trace I/O.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/util/types.hpp"

namespace hdtn {

/// ASCII lowercase copy.
[[nodiscard]] std::string toLower(std::string_view s);

/// Splits on any run of the given delimiter characters; no empty tokens.
[[nodiscard]] std::vector<std::string> splitTokens(std::string_view s,
                                                   std::string_view delims);

/// Splits keyword tokens for the query engine: lowercased, split on
/// whitespace and common punctuation.
[[nodiscard]] std::vector<std::string> keywordTokens(std::string_view s);

/// Joins parts with the separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool startsWith(std::string_view s, std::string_view prefix);

/// Formats a SimTime as "d<day> hh:mm:ss" for reports.
[[nodiscard]] std::string formatTime(SimTime t);

}  // namespace hdtn
