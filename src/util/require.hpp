#pragma once
// Precondition checking for the treesvd library.
//
// Library entry points validate their arguments with TREESVD_REQUIRE, which
// throws std::invalid_argument reading "treesvd: <message>": the message
// names the problem for the caller, who needs neither the condition's source
// text nor the library's source location. Internal invariants use
// TREESVD_ASSERT, which throws std::logic_error carrying the failed condition
// and location (a firing TREESVD_ASSERT is always a library bug, never a
// caller error).

#include <stdexcept>
#include <string>

namespace treesvd::detail {

[[noreturn]] inline void require_failed(const std::string& msg) {
  throw std::invalid_argument("treesvd: " + msg);
}

[[noreturn]] inline void assert_failed(const char* cond, const char* file, int line) {
  throw std::logic_error(std::string("treesvd internal invariant violated: ") + cond + " at " +
                         file + ":" + std::to_string(line));
}

}  // namespace treesvd::detail

#define TREESVD_REQUIRE(cond, msg)                         \
  do {                                                     \
    if (!(cond)) ::treesvd::detail::require_failed((msg)); \
  } while (0)

#define TREESVD_ASSERT(cond)                                                  \
  do {                                                                        \
    if (!(cond)) ::treesvd::detail::assert_failed(#cond, __FILE__, __LINE__); \
  } while (0)
