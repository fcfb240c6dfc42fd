#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace alert::util {
namespace {

std::optional<CliArgs> parse(std::initializer_list<const char*> tokens,
                             std::string* error = nullptr) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(Cli, EqualsSyntax) {
  const auto args = parse({"--nodes=150", "--speed=2.5"});
  ASSERT_TRUE(args);
  EXPECT_EQ(args->get("nodes", std::int64_t{0}), 150);
  EXPECT_DOUBLE_EQ(args->get("speed", 0.0), 2.5);
}

TEST(Cli, SpaceSyntax) {
  const auto args = parse({"--protocol", "gpsr", "--reps", "30"});
  ASSERT_TRUE(args);
  EXPECT_EQ(args->get("protocol", std::string()), "gpsr");
  EXPECT_EQ(args->get("reps", std::int64_t{0}), 30);
}

TEST(Cli, BooleanFlags) {
  const auto args = parse({"--attacks", "--csv", "--verbose=false"});
  ASSERT_TRUE(args);
  EXPECT_TRUE(args->get("attacks", false));
  EXPECT_TRUE(args->get("csv", false));
  EXPECT_FALSE(args->get("verbose", true));
  EXPECT_FALSE(args->get("missing", false));
  EXPECT_TRUE(args->get("missing", true));
}

TEST(Cli, BooleanFollowedByFlag) {
  const auto args = parse({"--attacks", "--nodes", "100"});
  ASSERT_TRUE(args);
  EXPECT_TRUE(args->get("attacks", false));
  EXPECT_EQ(args->get("nodes", std::int64_t{0}), 100);
}

TEST(Cli, MalformedTokenRejected) {
  std::string error;
  EXPECT_FALSE(parse({"nodes=5"}, &error).has_value());
  EXPECT_NE(error.find("nodes=5"), std::string::npos);
  EXPECT_FALSE(parse({"-n", "5"}).has_value());
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = parse({});
  ASSERT_TRUE(args);
  EXPECT_EQ(args->get("protocol", std::string("alert")), "alert");
  EXPECT_DOUBLE_EQ(args->get("speed", 2.0), 2.0);
}

TEST(Cli, UnusedTracksUntouchedKeys) {
  const auto args = parse({"--used=1", "--typo=2"});
  ASSERT_TRUE(args);
  (void)args->get("used", std::int64_t{0});
  const auto unused = args->unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, HasDetectsPresence) {
  const auto args = parse({"--x=1"});
  ASSERT_TRUE(args);
  EXPECT_TRUE(args->has("x"));
  EXPECT_FALSE(args->has("y"));
}

TEST(Cli, CommonFlagsPicksUpThreads) {
  const auto args = parse({"--threads=4", "--reps=3"});
  ASSERT_TRUE(args);
  const CommonFlags flags = CommonFlags::from(*args);
  EXPECT_EQ(flags.threads, 4);
  EXPECT_EQ(flags.reps, 3);
  EXPECT_TRUE(args->unused().empty());  // consumed, not a typo
}

TEST(Cli, CommonFlagsThreadsDefaultsToZero) {
  const auto args = parse({});
  ASSERT_TRUE(args);
  EXPECT_EQ(CommonFlags::from(*args).threads, 0);
}

TEST(Cli, BoolAcceptedSpellings) {
  const auto args = parse({"--a=yes", "--b=on", "--c=1", "--d=nope"});
  ASSERT_TRUE(args);
  EXPECT_TRUE(args->get("a", false));
  EXPECT_TRUE(args->get("b", false));
  EXPECT_TRUE(args->get("c", false));
  // "nope" is no bool: the fallback, and the key stays unconsumed.
  EXPECT_TRUE(args->get("d", true));
  EXPECT_EQ(args->unused(), std::vector<std::string>{"d"});
}

TEST(Cli, TypedGettersRejectPartialValues) {
  const auto args = parse({"--reps", "3x", "--threads=abc", "--speed=2.5m",
                           "--n= 5", "--big=99999999999999999999"});
  ASSERT_TRUE(args);
  EXPECT_EQ(args->get("reps", std::int64_t{7}), 7);
  EXPECT_EQ(args->get("threads", std::int64_t{0}), 0);
  EXPECT_DOUBLE_EQ(args->get("speed", 1.0), 1.0);
  EXPECT_EQ(args->get("n", std::int64_t{1}), 1);
  EXPECT_EQ(args->get("big", std::int64_t{1}), 1);
  // Unparsed values stay unconsumed, so the driver's typo check sees them.
  EXPECT_EQ(args->unused(), (std::vector<std::string>{"big", "n", "reps",
                                                      "speed", "threads"}));
}

TEST(Cli, CommonFlagsLeaveBadNumbersUnused) {
  const auto args = parse({"--reps", "3x", "--threads", "abc"});
  ASSERT_TRUE(args);
  const CommonFlags flags = CommonFlags::from(*args);
  EXPECT_EQ(flags.reps, 0);
  EXPECT_EQ(flags.threads, 0);
  EXPECT_EQ(args->unused(), (std::vector<std::string>{"reps", "threads"}));
}

TEST(Cli, RejectionNamesUnreadKeys) {
  const auto args = parse({"--used=1", "--typo=2"});
  ASSERT_TRUE(args);
  (void)args->get("used", std::int64_t{0});
  EXPECT_EQ(args->rejection(), "unknown flag --typo");
  (void)args->get("typo", std::string());
  EXPECT_EQ(args->rejection(), std::nullopt);
}

TEST(Cli, RejectionReportsBadValuesFirst) {
  const auto args = parse({"--a=unread", "--reps", "3x"});
  ASSERT_TRUE(args);
  EXPECT_EQ(args->get("reps", std::int64_t{7}), 7);
  EXPECT_EQ(args->rejection(), "bad value '3x' for --reps");
  // Reading the raw text afterwards does not take the refusal back.
  EXPECT_EQ(args->get("reps", std::string()), "3x");
  EXPECT_EQ(args->rejection(), "bad value '3x' for --reps");
  EXPECT_EQ(args->unused(), (std::vector<std::string>{"a", "reps"}));
}

TEST(Cli, NegativeAndExponentNumbersParse) {
  const auto args = parse({"--threads", "-1", "--scale=1e-3"});
  ASSERT_TRUE(args);
  EXPECT_EQ(args->get("threads", std::int64_t{0}), -1);
  EXPECT_DOUBLE_EQ(args->get("scale", 0.0), 1e-3);
  EXPECT_TRUE(args->unused().empty());
}

}  // namespace
}  // namespace alert::util
