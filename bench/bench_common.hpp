#pragma once
// Shared helpers for the figure/claim reproduction binaries: pretty-printing
// of ordering sweeps in the paper's notation, and a tiny JSON emitter for
// the BENCH_*.json perf artifacts (machine-readable baselines the CI
// perf-smoke job uploads; no external JSON dependency).

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "core/validate.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace treesvd::bench {

/// Append-only ordered JSON object: add() renders each field immediately, so
/// the builder is just a list of "key": value strings. Supports the flat
/// scalar fields plus arrays of sub-objects — all a BENCH_*.json needs.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& add(const std::string& key, long long v) { return raw(key, std::to_string(v)); }
  JsonObject& add(const std::string& key, std::size_t v) { return raw(key, std::to_string(v)); }
  JsonObject& add(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& add(const std::string& key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  JsonObject& add(const std::string& key, const char* v) { return add(key, std::string(v)); }
  JsonObject& add_array(const std::string& key, const std::vector<JsonObject>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ", ";
      out += items[i].str();
    }
    out += "]";
    return raw(key, out);
  }

  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += fields_[i];
    }
    out += "}";
    return out;
  }

 private:
  JsonObject& raw(const std::string& key, const std::string& rendered) {
    fields_.push_back("\"" + json_escape(key) + "\": " + rendered);
    return *this;
  }
  std::vector<std::string> fields_;
};

/// Writes the object (plus trailing newline) to `path`; returns false and
/// prints to stderr when the file cannot be written (write_text_file).
inline bool write_json_file(const std::string& path, const JsonObject& o) {
  return write_text_file(path, o.str() + "\n");
}

/// Maps a 0-based index to the paper's label, e.g. "3(2)" for index 3 of
/// block/group 2. group_size == 0 suppresses the superscript.
inline std::string label(int index, int group_size = 0) {
  if (group_size <= 0) return std::to_string(index + 1);
  const int group = index / group_size + 1;
  const int within = index % group_size + 1;
  return std::to_string(within) + "(" + std::to_string(group) + ")";
}

/// Prints one sweep as the paper's figures do: one row per step with the
/// index pairs, plus the deepest communication level of the transition that
/// follows the step ("global" when it reaches `global_level`).
inline void print_sweep(const Sweep& sweep, int group_size = 0, int global_level = -1) {
  for (int t = 0; t < sweep.steps(); ++t) {
    std::string row;
    for (const IndexPair& p : sweep.pairs(t)) {
      row += "(" + label(p.even, group_size) + " " + label(p.odd, group_size) + ")";
    }
    int deepest = 0;
    for (const ColumnMove& mv : sweep.moves(t))
      deepest = std::max(deepest, comm_level(mv.from_slot, mv.to_slot));
    std::string level;
    if (deepest == 0) {
      level = "-";
    } else if (global_level > 0 && deepest >= global_level) {
      level = "global";
    } else {
      level = std::to_string(deepest);
    }
    std::printf("  step %2d: %-64s  level %s\n", t + 1, row.c_str(), level.c_str());
  }
  std::string fin;
  for (int idx : sweep.final_layout()) fin += label(idx, group_size) + " ";
  std::printf("  after sweep: %s\n", fin.c_str());
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace treesvd::bench
