#pragma once
// Whole-file writes for the tools' and benches' machine-readable reports.

#include <string>
#include <string_view>

namespace treesvd {

/// Replaces the file at `path` with `text`, then flushes and closes it.
/// Every step is checked — a full disk often fails only at the flush or the
/// close. On any failure prints "cannot write PATH: REASON" to stderr and
/// returns false.
bool write_text_file(const std::string& path, std::string_view text);

}  // namespace treesvd
