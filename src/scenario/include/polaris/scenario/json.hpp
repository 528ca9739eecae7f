// Minimal JSON for scenario specs.
//
// Scenarios are data: a chaos campaign is a JSON document checked into the
// repo (or handed to the CLI), not a C++ program, so the same spec replays
// bit-identically everywhere and diffs review like configuration.  The repo
// takes no external dependencies, so this is a small self-contained value
// type + recursive-descent parser covering the JSON we emit and consume:
// objects, arrays, strings (with the standard escapes), doubles, bools,
// null.  Specs are outside input, so the parser holds to RFC 8259: numbers
// must match its grammar and lie within a double's range, and strings may
// not carry raw control bytes.  Object member order is PRESERVED (vector
// of pairs, not a map) — dump() of a parsed document is deterministic,
// which the scenario determinism hashes rely on.
//
// Errors throw support::ContractViolation with a byte offset; there is no
// half-parsed state to propagate.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace polaris::scenario {

class Json {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Json() = default;

  /// Parses one JSON document (trailing whitespace allowed, nothing else).
  static Json parse(std::string_view text);

  // -- builders (tests, spec mutation) ---------------------------------------
  static Json object();
  static Json array();
  static Json number(double v);
  static Json string(std::string v);
  static Json boolean(bool v);

  /// Object insert-or-replace (keeps first-insertion order on replace).
  void set(std::string key, Json value);
  /// Array append.
  void push(Json value);

  // -- accessors -------------------------------------------------------------
  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bool() const { return type_ == Type::kBool; }

  /// Checked scalar reads (throw on type mismatch).
  double num() const;
  const std::string& str() const;
  bool boolean() const;

  /// Array elements (throws unless array).
  const std::vector<Json>& items() const;
  /// Object members in document order (throws unless object).
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Object lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;
  /// Checked lookup: throws when absent.
  const Json& at(std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }

  /// Scalar lookup with fallback (absent key OR wrong type -> fallback).
  double num_or(std::string_view key, double fallback) const;
  std::string str_or(std::string_view key, std::string_view fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;

  /// Serializes compactly; numbers via %.17g, so parse(dump()) round-trips
  /// and equal documents dump to equal bytes.  A non-finite number, which
  /// JSON cannot express, is written as null.
  std::string dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace polaris::scenario
