#include "src/util/string_util.hpp"

#include <gtest/gtest.h>

namespace hdtn {
namespace {

TEST(ToLower, Basic) {
  EXPECT_EQ(toLower("FoX NeWs"), "fox news");
  EXPECT_EQ(toLower(""), "");
  EXPECT_EQ(toLower("123-ABC"), "123-abc");
}

TEST(SplitTokens, SkipsEmptyTokens) {
  const auto tokens = splitTokens("a,,b, c", ", ");
  EXPECT_EQ(tokens, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTokens, NoDelimiters) {
  EXPECT_EQ(splitTokens("hello", ","),
            (std::vector<std::string>{"hello"}));
}

TEST(SplitTokens, OnlyDelimiters) {
  EXPECT_TRUE(splitTokens(",,,", ",").empty());
  EXPECT_TRUE(splitTokens("", ",").empty());
}

TEST(KeywordTokens, LowercasesAndSplitsPunctuation) {
  const auto tokens = keywordTokens("FOX News: daily-special (ep42)!");
  EXPECT_EQ(tokens, (std::vector<std::string>{"fox", "news", "daily",
                                              "special", "ep42"}));
}

TEST(KeywordTokens, HandlesUnderscoresAndSlashes) {
  const auto tokens = keywordTokens("dtn://fox/f12_clip");
  EXPECT_EQ(tokens, (std::vector<std::string>{"dtn", "fox", "f12", "clip"}));
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("nochange"), "nochange");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(startsWith("--seeds=3", "--seeds="));
  EXPECT_FALSE(startsWith("-seeds=3", "--seeds="));
  EXPECT_TRUE(startsWith("abc", ""));
  EXPECT_FALSE(startsWith("", "a"));
}

TEST(FormatTime, DayHourMinuteSecond) {
  EXPECT_EQ(formatTime(0), "d0 00:00:00");
  EXPECT_EQ(formatTime(kDay + 2 * kHour + 3 * kMinute + 4), "d1 02:03:04");
  EXPECT_EQ(formatTime(kDailyPublishHour), "d0 14:00:00");
  EXPECT_EQ(formatTime(10 * kDay - 1), "d9 23:59:59");
}

}  // namespace
}  // namespace hdtn
