#include "polaris/scenario/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "polaris/support/check.hpp"

namespace polaris::scenario {
namespace {

TEST(ScenarioJson, ParsesScalarsAndContainers) {
  const Json v = Json::parse(
      R"({"a": 1.5, "b": "text", "c": true, "d": null, "e": [1, 2, 3]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("a").num(), 1.5);
  EXPECT_EQ(v.at("b").str(), "text");
  EXPECT_TRUE(v.at("c").boolean());
  EXPECT_TRUE(v.at("d").is_null());
  ASSERT_EQ(v.at("e").items().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("e").items()[2].num(), 3.0);
}

TEST(ScenarioJson, ParsesNestedSpecShapedDocuments) {
  const Json v = Json::parse(R"({
    "harness": {"kind": "serve", "shards": 4},
    "tree": {"seq": [{"wait": 0.01}, {"assert": "dropped == 0"}]}
  })");
  EXPECT_EQ(v.at("harness").str_or("kind", ""), "serve");
  EXPECT_DOUBLE_EQ(v.at("harness").num_or("shards", 0.0), 4.0);
  const auto& seq = v.at("tree").at("seq").items();
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_DOUBLE_EQ(seq[0].at("wait").num(), 0.01);
  EXPECT_EQ(seq[1].at("assert").str(), "dropped == 0");
}

TEST(ScenarioJson, HandlesEscapesAndUnicode) {
  const Json v = Json::parse(R"({"s": "a\"b\\c\ndA"})");
  EXPECT_EQ(v.at("s").str(), "a\"b\\c\ndA");
}

TEST(ScenarioJson, DumpIsDeterministicAndRoundTrips) {
  const char* text =
      R"({"name": "x", "nums": [1, 2.5, -3e-2], "inner": {"k": false}})";
  const Json v = Json::parse(text);
  const std::string once = v.dump();
  // Same value -> same bytes (member order is preserved, numbers are
  // %.17g): dump is usable as a fingerprint input.
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(ScenarioJson, PreservesMemberOrder) {
  const Json v = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& members = v.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(ScenarioJson, BuildersProduceParseableDocuments) {
  Json obj = Json::object();
  obj.set("rate", Json::number(1000.0));
  obj.set("kind", Json::string("serve"));
  Json arr = Json::array();
  arr.push(Json::number(1.0));
  arr.push(Json::boolean(true));
  obj.set("list", std::move(arr));
  obj.set("rate", Json::number(2000.0));  // insert-or-replace
  const Json back = Json::parse(obj.dump());
  EXPECT_DOUBLE_EQ(back.at("rate").num(), 2000.0);
  EXPECT_EQ(back.at("kind").str(), "serve");
  EXPECT_TRUE(back.at("list").items()[1].boolean());
}

TEST(ScenarioJson, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), support::ContractViolation);
  EXPECT_THROW(Json::parse(R"({"a": })"), support::ContractViolation);
  EXPECT_THROW(Json::parse("[1, 2,]"), support::ContractViolation);
  EXPECT_THROW(Json::parse("tru"), support::ContractViolation);
  EXPECT_THROW(Json::parse(R"({"a": 1} trailing)"),
               support::ContractViolation);
  // Numbers outside the RFC 8259 grammar, or beyond a finite double.
  for (const char* text :
       {"Infinity", "-inf", "NaN", "0x10", "+1", ".5", "01", "1.", "1e999",
        "-", "1e", "[1.e5]", R"({"a": 01})", "-1e999", "1e-400"}) {
    EXPECT_THROW(Json::parse(text), support::ContractViolation) << text;
  }
  // A raw control byte inside a string must be escaped.
  EXPECT_THROW(Json::parse("\"a\tb\""), support::ContractViolation);
}

TEST(ScenarioJson, NonFiniteNumbersDumpAsNullAndParseBack) {
  Json obj = Json::object();
  obj.set("x", Json::number(std::numeric_limits<double>::quiet_NaN()));
  obj.set("y", Json::number(std::numeric_limits<double>::infinity()));
  obj.set("z", Json::number(-std::numeric_limits<double>::infinity()));
  const std::string text = obj.dump();
  EXPECT_EQ(text, R"({"x":null,"y":null,"z":null})");
  const Json back = Json::parse(text);
  EXPECT_TRUE(back.at("x").is_null());
  EXPECT_TRUE(back.at("y").is_null());
  EXPECT_TRUE(back.at("z").is_null());
}

TEST(ScenarioJson, EveryControlByteRoundTripsEscaped) {
  std::string raw = "\"\\/";
  for (char c = 1; c < 0x20; ++c) raw.push_back(c);
  const std::string text = Json::string(raw).dump();
  for (const char c : text) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << text;
  }
  EXPECT_EQ(Json::parse(text).str(), raw);
}

TEST(ScenarioJson, TypeMismatchesFailLoudly) {
  const Json v = Json::parse(R"({"a": 1})");
  EXPECT_THROW(v.at("a").str(), support::ContractViolation);
  EXPECT_THROW(v.at("missing"), support::ContractViolation);
  EXPECT_THROW(v.at("a").items(), support::ContractViolation);
}

}  // namespace
}  // namespace polaris::scenario
