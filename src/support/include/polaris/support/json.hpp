// JSON text writing shared by every emitter in the tree: scenario::Json,
// the obs Chrome-trace exporter and bench::Report escape strings and
// format numbers the same way, so their outputs stay byte-compatible.
#pragma once

#include <string>
#include <string_view>

namespace polaris::support {

/// Appends `s` to `out` with the JSON string escapes (RFC 8259 §7): quote
/// and backslash escaped, \n \t \r by name, every other byte below 0x20
/// as \u00xx.  No surrounding quotes; bytes >= 0x20 (UTF-8 included) pass
/// through unchanged.
void append_json_escaped(std::string& out, std::string_view s);

/// Appends `v` as %.17g, which round-trips every finite double.  JSON has
/// no NaN or infinity, so a non-finite value is written as null.
void append_json_number(std::string& out, double v);

}  // namespace polaris::support
