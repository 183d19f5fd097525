#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>

#include "util/require.hpp"

namespace treesvd {

Cli::Cli(int argc, const char* const* argv) {
  TREESVD_REQUIRE(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    TREESVD_REQUIRE(arg.rfind("--", 0) == 0, "expected --key[=value], got: " + arg);
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_[arg] = "1";
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Cli::has(const std::string& key) const { return kv_.count(key) != 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

namespace {

/// Throws naming the flag unless a strtoll/strtod call that set `end` (with
/// errno cleared before it) read all of `text`, non-empty, within range.
void require_whole_number(const std::string& key, const std::string& text, const char* end) {
  TREESVD_REQUIRE(end != text.c_str() && *end == '\0' && errno != ERANGE,
                  "--" + key + " expects a number, got: '" + text + "'");
}

}  // namespace

long long Cli::get_int(const std::string& key, long long fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  require_whole_number(key, it->second, end);
  return value;
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  require_whole_number(key, it->second, end);
  return value;
}

}  // namespace treesvd
