#pragma once
// Tiny --flag=value command-line parser shared by the examples, benches and
// tools.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace treesvd {

/// A malformed command line: a positional argument, or a flag value a getter
/// cannot read. The message names the flag.
class CliError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parses "--key=value" and bare "--key" (value "1") arguments.
/// Unrecognised positional arguments are rejected so typos fail loudly, and
/// so are numeric values that do not parse whole (get_int, get_count,
/// get_double), negative counts (get_count) and empty list items (get_list,
/// get_int_list). Every rejection throws CliError.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  /// A whole number >= 0 (a size, a count or a seed) read by get_int's rule;
  /// a negative value throws CliError naming the flag instead of wrapping.
  std::uint64_t get_count(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// Comma-separated names ("a,b,c"); `fallback` when the flag is absent.
  std::vector<std::string> get_list(const std::string& key,
                                    const std::vector<std::string>& fallback) const;
  /// Comma-separated whole numbers, each read by get_int's rule.
  std::vector<long long> get_int_list(const std::string& key,
                                      const std::vector<long long>& fallback) const;

  /// Throws CliError naming the first given flag that is not in `known`.
  /// A tool lists every flag it reads, so a misspelt flag fails loudly
  /// instead of running on the defaults.
  void require_known(std::initializer_list<std::string_view> known) const;

  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
};

/// Runs a tool's main, turning a std::invalid_argument — a CliError, or a
/// value the library rejects through TREESVD_REQUIRE — into the usage-error
/// exit status 2 after printing "<name>: <message>" to stderr.
int run_tool(const char* name, int argc, const char* const* argv,
             int (*tool_main)(int, const char* const*));

}  // namespace treesvd
