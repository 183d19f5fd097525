#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/require.hpp"

namespace treesvd {

Cli::Cli(int argc, const char* const* argv) {
  TREESVD_REQUIRE(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw CliError("expected --key[=value], got: " + arg);
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
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    throw CliError("--" + key + " expects a number, got: '" + text + "'");
}

long long parse_int(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  require_whole_number(key, text, end);
  return value;
}

/// The comma-separated items of `text`; throws naming the flag on an empty
/// item (",a", "a,,b", "a,").
std::vector<std::string> split_items(const std::string& key, const std::string& text) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end == begin) throw CliError("--" + key + " has an empty list item: '" + text + "'");
    items.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) return items;
    begin = comma + 1;
  }
}

}  // namespace

long long Cli::get_int(const std::string& key, long long fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_int(key, it->second);
}

std::uint64_t Cli::get_count(const std::string& key, std::uint64_t fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const long long value = parse_int(key, it->second);
  if (value < 0)
    throw CliError("--" + key + " expects a whole number >= 0, got: '" + it->second + "'");
  return static_cast<std::uint64_t>(value);
}

int Cli::get_size(const std::string& key, int fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const long long value = parse_int(key, it->second);
  if (value < 0 || value > std::numeric_limits<int>::max())
    throw CliError("--" + key + " expects a whole number in [0, " +
                   std::to_string(std::numeric_limits<int>::max()) + "], got: '" + it->second +
                   "'");
  return static_cast<int>(value);
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

std::vector<std::string> Cli::get_list(const std::string& key,
                                       const std::vector<std::string>& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : split_items(key, it->second);
}

std::vector<long long> Cli::get_int_list(const std::string& key,
                                         const std::vector<long long>& fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  std::vector<long long> values;
  for (const std::string& item : split_items(key, it->second))
    values.push_back(parse_int(key, item));
  return values;
}

void Cli::require_known(std::initializer_list<std::string_view> known) const {
  for (const auto& entry : kv_)
    if (std::find(known.begin(), known.end(), entry.first) == known.end())
      throw CliError("unknown flag --" + entry.first);
}

int run_tool(const char* name, int argc, const char* const* argv,
             int (*tool_main)(int, const char* const*)) {
  try {
    return tool_main(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", name, e.what());
    return 2;
  }
}

}  // namespace treesvd
