#include "core/fat_tree.hpp"

#include "util/require.hpp"

namespace treesvd {
namespace {

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::vector<int> evens(const std::vector<int>& v) {
  std::vector<int> out;
  for (std::size_t i = 0; i < v.size(); i += 2) out.push_back(v[i]);
  return out;
}

std::vector<int> odds(const std::vector<int>& v) {
  std::vector<int> out;
  for (std::size_t i = 1; i < v.size(); i += 2) out.push_back(v[i]);
  return out;
}

std::vector<int> interleave(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(a[i]);
    out.push_back(b[i]);
  }
  return out;
}

std::vector<int> concat(std::vector<int> a, const std::vector<int>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Zips two lockstep row sequences (left region | right region).
std::vector<std::vector<int>> zip_rows(const std::vector<std::vector<int>>& l,
                                       const std::vector<std::vector<int>>& r) {
  TREESVD_ASSERT(l.size() == r.size());
  std::vector<std::vector<int>> out;
  out.reserve(l.size());
  for (std::size_t t = 0; t < l.size(); ++t) out.push_back(concat(l[t], r[t]));
  return out;
}

/// One merge stage on a super-group: super-steps 2 and 3 of the four-block
/// ordering (realised by two-block orderings) plus the restore that returns
/// every block to its home positions.
BlockRows merge_stage(std::span<const int> seg) {
  const std::size_t size = seg.size();
  const std::size_t half = size / 2;
  const std::vector<int> left(seg.begin(), seg.begin() + static_cast<std::ptrdiff_t>(half));
  const std::vector<int> right(seg.begin() + static_cast<std::ptrdiff_t>(half), seg.end());
  const std::vector<int> b1 = evens(left);
  const std::vector<int> b2 = odds(left);
  const std::vector<int> b3 = evens(right);
  const std::vector<int> b4 = odds(right);

  // Module step 1 -> 2: blocks 2 and 3 interchange, giving super-pairs
  // (b1,b3) and (b2,b4); the arriving/odd-position blocks rotate.
  BlockRows a_l = two_block_rows(b1, b3);
  BlockRows a_r = two_block_rows(b2, b4);
  std::vector<std::vector<int>> rows = zip_rows(a_l.rows, a_r.rows);

  // Module step 2 -> 3: blocks 3 and 4 (both half-rotated) interchange.
  const std::vector<int> b1f = evens(a_l.final_layout);
  const std::vector<int> b3f = odds(a_l.final_layout);
  const std::vector<int> b2f = evens(a_r.final_layout);
  const std::vector<int> b4f = odds(a_r.final_layout);
  BlockRows b_l = two_block_rows(b1f, b4f);
  BlockRows b_r = two_block_rows(b2f, b3f);
  for (auto& row : zip_rows(b_l.rows, b_r.rows)) rows.push_back(std::move(row));

  // Module step 3 -> home: every block returns to its original positions,
  // now internally back in order (each rotating block rotated twice).
  const std::vector<int> b1g = evens(b_l.final_layout);
  const std::vector<int> b4g = odds(b_l.final_layout);
  const std::vector<int> b2g = evens(b_r.final_layout);
  const std::vector<int> b3g = odds(b_r.final_layout);
  return {std::move(rows), concat(interleave(b1g, b2g), interleave(b3g, b4g))};
}

/// Shared driver for the restoring (ours) and non-restoring (LLB-style)
/// variants: produce the step layouts of one forward sweep.
Ordering::Canonical forward_fat_tree(int n, bool restoring) {
  std::vector<int> layout(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) layout[static_cast<std::size_t>(i)] = i;

  Ordering::Canonical c;
  // Stage 1: four-block module on every group of four.
  {
    std::vector<BlockRows> groups;
    for (int g = 0; g + 4 <= n; g += 4) {
      const std::span<const int> ids(layout.data() + g, 4);
      groups.push_back(four_block_module(ids, FourBlockVariant::kOrderPreserving));
    }
    for (std::size_t t = 0; t < 3; ++t) {
      std::vector<int> row;
      for (const auto& g : groups) row = concat(std::move(row), g.rows[t]);
      c.layouts.push_back(std::move(row));
    }
    std::vector<int> fin;
    for (const auto& g : groups) fin = concat(std::move(fin), g.final_layout);
    layout = std::move(fin);
  }

  // Merge stages: super-groups of 8, 16, ... n.
  for (int size = 8; size <= n; size *= 2) {
    std::vector<BlockRows> groups;
    for (int base = 0; base + size <= n; base += size) {
      groups.push_back(merge_stage(std::span<const int>(layout.data() + base,
                                                        static_cast<std::size_t>(size))));
    }
    const std::size_t nsteps = groups.front().rows.size();
    for (std::size_t t = 0; t < nsteps; ++t) {
      std::vector<int> row;
      for (const auto& g : groups) row = concat(std::move(row), g.rows[t]);
      c.layouts.push_back(std::move(row));
    }
    std::vector<int> fin;
    for (const auto& g : groups) fin = concat(std::move(fin), g.final_layout);
    layout = std::move(fin);
  }

  if (restoring) {
    c.layouts.push_back(std::move(layout));  // == identity; verified in tests
  } else {
    // Non-restoring: the sweep ends wherever the last step left the columns.
    c.layouts.push_back(c.layouts.back());
  }
  return c;
}

}  // namespace

BlockRows two_block_rows(std::span<const int> x, std::span<const int> y) {
  TREESVD_REQUIRE(x.size() == y.size() && is_pow2(x.size()),
                  "two-block ordering needs equal power-of-two block sizes");
  const std::size_t k = x.size();
  if (k == 1) {
    const std::vector<int> row = {x[0], y[0]};
    return {{row}, row};
  }
  const std::size_t h = k / 2;
  // Super-step A: (X1,Y1) on the left sub-region, (X2,Y2) on the right.
  BlockRows a_l = two_block_rows(x.subspan(0, h), y.subspan(0, h));
  BlockRows a_r = two_block_rows(x.subspan(h), y.subspan(h));
  std::vector<std::vector<int>> rows = zip_rows(a_l.rows, a_r.rows);
  // Level-k exchange: the rotating halves Y1', Y2' swap sub-regions.
  const std::vector<int> x_l = evens(a_l.final_layout);
  const std::vector<int> y_l = odds(a_l.final_layout);
  const std::vector<int> x_r = evens(a_r.final_layout);
  const std::vector<int> y_r = odds(a_r.final_layout);
  // Super-step B: (X1,Y2'), (X2,Y1').
  BlockRows b_l = two_block_rows(x_l, y_r);
  BlockRows b_r = two_block_rows(x_r, y_l);
  for (auto& row : zip_rows(b_l.rows, b_r.rows)) rows.push_back(std::move(row));
  return {std::move(rows), concat(b_l.final_layout, b_r.final_layout)};
}

BlockRows four_block_module(std::span<const int> ids, FourBlockVariant variant) {
  TREESVD_REQUIRE(ids.size() == 4, "four-block module operates on four indices");
  const int a = ids[0];
  const int b = ids[1];
  const int cc = ids[2];
  const int d = ids[3];
  if (variant == FourBlockVariant::kOrderPreserving) {
    // Fig. 4(a): left element of every pair is the smaller index; the step-3
    // arrow (swap before the next communication) is realised by the fused
    // rotate-and-swap of eq. (3) in the SVD engine.
    return {{{a, b, cc, d}, {a, cc, b, d}, {a, d, b, cc}}, {a, b, cc, d}};
  }
  // Fig. 4(b): order of the last two indices is reversed after one sweep.
  return {{{a, b, cc, d}, {a, d, b, cc}, {a, cc, b, d}}, {a, b, d, cc}};
}

BlockRows fat_tree_region_rows(std::span<const int> region) {
  const int g = static_cast<int>(region.size());
  TREESVD_REQUIRE(g >= 4 && (g & (g - 1)) == 0,
                  "fat-tree region size must be a power of two >= 4");
  Ordering::Canonical c = forward_fat_tree(g, /*restoring=*/true);
  BlockRows out;
  for (std::size_t t = 0; t + 1 < c.layouts.size(); ++t) {
    std::vector<int> row;
    row.reserve(region.size());
    for (int pos : c.layouts[t]) row.push_back(region[static_cast<std::size_t>(pos)]);
    out.rows.push_back(std::move(row));
  }
  out.final_layout.assign(region.begin(), region.end());
  return out;
}

Ordering::Canonical FatTreeOrdering::canonical(int n, int /*sweep_index*/) const {
  return forward_fat_tree(n, /*restoring=*/true);
}

Ordering::Canonical LlbFatTreeOrdering::canonical(int n, int sweep_index) const {
  Canonical fwd = forward_fat_tree(n, /*restoring=*/false);
  if (sweep_index % procedures() == 0) return fwd;
  // Backward sweep: the forward step layouts in reverse order, ending where
  // the forward sweep began. Its first rotation repeats the forward sweep's
  // last pair — the "free" rotation the paper notes may be omitted (the pair
  // is already orthogonal, so the threshold strategy skips it at run time).
  Canonical bwd;
  // fwd.layouts = [F_0 .. F_{S-1}, F_{S-1}]; take F_{S-1} .. F_0 as the step
  // layouts and F_0 (the identity) as the post-sweep layout.
  bwd.layouts.assign(fwd.layouts.rbegin() + 1, fwd.layouts.rend());
  bwd.layouts.push_back(bwd.layouts.back());
  // Re-anchor at the identity: the backward sweep starts from the forward
  // sweep's final state P = F_{S-1}. A canonical sweep must express layouts
  // in position space, so compose with P^{-1}; sweep_from(P) then reproduces
  // the absolute sequence F_{S-1}, ..., F_0.
  const std::vector<int>& p = fwd.layouts.back();
  std::vector<int> pinv(p.size());
  for (std::size_t s = 0; s < p.size(); ++s)
    pinv[static_cast<std::size_t>(p[s])] = static_cast<int>(s);
  for (auto& lay : bwd.layouts)
    for (auto& v : lay) v = pinv[static_cast<std::size_t>(v)];
  return bwd;
}

}  // namespace treesvd
