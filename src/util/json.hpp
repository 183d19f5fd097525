#pragma once
// JSON string escaping for the tools' and benches' machine-readable reports.

#include <string>
#include <string_view>

namespace treesvd {

/// The body of a JSON string literal holding `in` (no surrounding quotes):
/// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` use their short
/// escapes, and every other byte below 0x20 becomes `\u00XX`. Bytes from
/// 0x20 up, UTF-8 included, pass through unchanged.
std::string json_escape(std::string_view in);

}  // namespace treesvd
