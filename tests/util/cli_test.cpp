#include "util/cli.h"

#include <gtest/gtest.h>

namespace nvmsec {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return v;
}

TEST(CliTest, DefaultsApplyWhenUnset) {
  CliParser cli("test");
  cli.add_flag("count", "a count", "5");
  auto args = argv_of({});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("count"), 5);
}

TEST(CliTest, EqualsAndSpaceForms) {
  CliParser cli("test");
  cli.add_flag("a", "", "0");
  cli.add_flag("b", "", "0");
  auto args = argv_of({"--a=3", "--b", "4"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("a"), 3);
  EXPECT_EQ(cli.get_int("b"), 4);
}

TEST(CliTest, SwitchesDefaultFalseAndToggle) {
  CliParser cli("test");
  cli.add_switch("verbose", "");
  {
    auto args = argv_of({});
    CliParser c2 = cli;
    ASSERT_TRUE(c2.parse(static_cast<int>(args.size()), args.data()));
    EXPECT_FALSE(c2.get_bool("verbose"));
  }
  {
    auto args = argv_of({"--verbose"});
    ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
    EXPECT_TRUE(cli.get_bool("verbose"));
  }
}

TEST(CliTest, SwitchWithExplicitValue) {
  CliParser cli("test");
  cli.add_switch("x", "");
  auto args = argv_of({"--x=false"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_FALSE(cli.get_bool("x"));
}

TEST(CliTest, UnknownFlagThrows) {
  CliParser cli("test");
  auto args = argv_of({"--nope=1"});
  EXPECT_THROW(cli.parse(static_cast<int>(args.size()), args.data()),
               std::invalid_argument);
}

TEST(CliTest, MissingValueThrows) {
  CliParser cli("test");
  cli.add_flag("a", "", "0");
  auto args = argv_of({"--a"});
  EXPECT_THROW(cli.parse(static_cast<int>(args.size()), args.data()),
               std::invalid_argument);
}

TEST(CliTest, MalformedNumbersThrow) {
  CliParser cli("test");
  cli.add_flag("n", "", "1x");
  cli.add_flag("d", "", "2.5y");
  auto args = argv_of({});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_THROW(cli.get_int("n"), std::invalid_argument);
  EXPECT_THROW(cli.get_double("d"), std::invalid_argument);
}

TEST(CliTest, DoubleParsing) {
  CliParser cli("test");
  cli.add_flag("f", "", "0.5");
  auto args = argv_of({"--f=2.25"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("f"), 2.25);
}

TEST(CliTest, StrayArgumentRejectedByName) {
  // A second value after a flag, or a value after a switch, is an error
  // naming it, never dropped: "--seeds 3 4" must not run 3 seeds, nor
  // "--detect false" the detector.
  const auto expect_rejected = [](std::initializer_list<const char*> argv,
                                  const std::string& stray) {
    CliParser cli("test");
    cli.add_flag("a", "", "0");
    cli.add_switch("on", "");
    auto args = argv_of(argv);
    try {
      (void)cli.parse(static_cast<int>(args.size()), args.data());
      ADD_FAILURE() << "accepted '" << stray << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + stray + "'"),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected({"--a", "3", "4"}, "4");
  expect_rejected({"--on", "false"}, "false");
  expect_rejected({"first", "--a=1"}, "first");
}

TEST(CliTest, HelpReturnsFalse) {
  CliParser cli("test");
  auto args = argv_of({"--help"});
  EXPECT_FALSE(cli.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, UsageMentionsFlagsAndHelp) {
  CliParser cli("my description");
  cli.add_flag("alpha", "the alpha flag", "1");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("my description"), std::string::npos);
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("the alpha flag"), std::string::npos);
}

TEST(CliTest, UnregisteredGetterThrows) {
  CliParser cli("test");
  EXPECT_THROW(cli.get_string("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace nvmsec
