#pragma once
// Tiny --flag=value command-line parser shared by the examples and benches.

#include <cstddef>
#include <map>
#include <string>

namespace treesvd {

/// Parses "--key=value" and bare "--key" (value "1") arguments.
/// Unrecognised positional arguments are rejected so typos fail loudly, and
/// so are numeric values that do not parse whole (get_int, get_double).
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  double get_double(const std::string& key, double fallback) const;

  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
};

}  // namespace treesvd
