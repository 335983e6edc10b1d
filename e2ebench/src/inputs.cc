#include "inputs.h"

#include <algorithm>
#include <unordered_set>

namespace e2e {
namespace {

HEdge Sorted(HEdge e) {
  std::sort(e.begin(), e.end());
  return e;
}

/// Shuffles final inserts with decoy insert/delete pairs; each decoy's
/// first occurrence in the shuffled order is its insert, the second its
/// delete, so every delete follows its insert.
std::vector<std::pair<HEdge, int>> AssembleChurn(
    const std::vector<HEdge>& finals, const std::vector<HEdge>& decoys,
    Rng& rng) {
  std::vector<uint32_t> order;  // < finals.size(): final; else decoy id
  order.reserve(finals.size() + 2 * decoys.size());
  for (size_t i = 0; i < finals.size(); ++i) order.push_back(i);
  for (size_t d = 0; d < decoys.size(); ++d) {
    order.push_back(static_cast<uint32_t>(finals.size() + d));
    order.push_back(static_cast<uint32_t>(finals.size() + d));
  }
  rng.Shuffle(&order);
  std::vector<char> inserted(decoys.size(), 0);
  std::vector<std::pair<HEdge, int>> updates;
  updates.reserve(order.size());
  for (uint32_t id : order) {
    if (id < finals.size()) {
      updates.emplace_back(finals[id], +1);
      continue;
    }
    const size_t d = id - finals.size();
    updates.emplace_back(decoys[d], inserted[d] ? -1 : +1);
    inserted[d] = 1;
  }
  return updates;
}

/// Draws `count` distinct hyperedges from `draw` that are not in `taken`
/// (adding them to it).
template <typename Draw>
std::vector<HEdge> DrawDistinct(size_t count,
                                std::unordered_set<uint64_t>* taken,
                                Draw draw) {
  std::vector<HEdge> out;
  out.reserve(count);
  while (out.size() < count) {
    HEdge e = draw();
    if (!taken->insert(EdgeKey(e)).second) continue;
    out.push_back(std::move(e));
  }
  return out;
}

HEdge RandomPair(Rng& rng, const std::vector<uint32_t>& pool) {
  for (;;) {
    const uint32_t a = pool[rng.Below(pool.size())];
    const uint32_t b = pool[rng.Below(pool.size())];
    if (a != b) return Sorted({a, b});
  }
}

HEdge RandomTriple(Rng& rng, const std::vector<uint32_t>& pool) {
  for (;;) {
    const uint32_t a = pool[rng.Below(pool.size())];
    const uint32_t b = pool[rng.Below(pool.size())];
    const uint32_t c = pool[rng.Below(pool.size())];
    if (a != b && b != c && a != c) return Sorted({a, b, c});
  }
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint32_t>(i);
  return v;
}

}  // namespace

Input MakeGnmChurn(size_t n, double mean_degree, size_t decoys, uint64_t seed) {
  Rng rng(seed);
  Input in;
  in.n = n;
  std::vector<uint32_t> all = Iota(n);
  std::vector<uint32_t> perm = all;
  rng.Shuffle(&perm);
  const size_t num_isolated = n / 64;
  in.isolated.assign(perm.begin(), perm.begin() + num_isolated);
  std::sort(in.isolated.begin(), in.isolated.end());
  const std::vector<uint32_t> live(perm.begin() + num_isolated, perm.end());

  std::unordered_set<uint64_t> taken;
  const size_t m = static_cast<size_t>(mean_degree * live.size() / 2.0);
  in.final_edges =
      DrawDistinct(m, &taken, [&] { return RandomPair(rng, live); });
  const std::vector<HEdge> decoy_edges =
      DrawDistinct(decoys, &taken, [&] { return RandomPair(rng, all); });
  in.updates = AssembleChurn(in.final_edges, decoy_edges, rng);
  return in;
}

Input MakePlantedSeparator(size_t n, size_t cycles, size_t stream_updates,
                           uint64_t seed) {
  Rng rng(seed);
  Input in;
  in.n = n;
  std::vector<uint32_t> perm = Iota(n);
  rng.Shuffle(&perm);
  in.separator = Sorted({perm[0], perm[1]});
  const size_t half = (n - 2) / 2;
  const std::vector<uint32_t> side_a(perm.begin() + 2, perm.begin() + 2 + half);
  const std::vector<uint32_t> side_b(perm.begin() + 2 + half, perm.end());
  const std::vector<uint32_t> others(perm.begin() + 2, perm.end());

  std::unordered_set<uint64_t> taken;
  auto add = [&](HEdge e) {
    if (taken.insert(EdgeKey(e)).second) in.final_edges.push_back(std::move(e));
  };
  for (uint32_t hub : in.separator) {
    for (uint32_t v : others) add(Sorted({hub, v}));
  }
  for (const std::vector<uint32_t>* side : {&side_a, &side_b}) {
    for (size_t c = 0; c < cycles; ++c) {
      std::vector<uint32_t> order = *side;
      rng.Shuffle(&order);
      for (size_t i = 0; i < order.size(); ++i) {
        add(Sorted({order[i], order[(i + 1) % order.size()]}));
      }
    }
  }
  const size_t decoys =
      stream_updates > in.final_edges.size()
          ? (stream_updates - in.final_edges.size()) / 2
          : 0;
  const std::vector<HEdge> decoy_edges =
      DrawDistinct(decoys, &taken, [&] { return RandomPair(rng, others); });
  in.updates = AssembleChurn(in.final_edges, decoy_edges, rng);
  return in;
}

Input MakePlantedHypercut(size_t n, size_t decoys, uint64_t seed) {
  Rng rng(seed);
  Input in;
  in.n = n;
  in.max_rank = 3;
  std::vector<uint32_t> perm = Iota(n);
  rng.Shuffle(&perm);
  const std::vector<uint32_t> side_a(perm.begin(), perm.begin() + n / 2);
  const std::vector<uint32_t> side_b(perm.begin() + n / 2, perm.end());
  in.shore.assign(n, false);
  for (uint32_t v : side_a) in.shore[v] = true;

  std::unordered_set<uint64_t> taken;
  auto add = [&](HEdge e) {
    if (taken.insert(EdgeKey(e)).second) in.final_edges.push_back(std::move(e));
  };
  // A cyclic triple chain is 3-edge-connected on its own (a single vertex
  // sits in three triples, any larger arc is crossed by four), so two
  // chains make each shore at least 6-edge-connected and the three
  // crossing triples below are the unique minimum cut.
  for (const std::vector<uint32_t>* side : {&side_a, &side_b}) {
    for (int chain = 0; chain < 2; ++chain) {
      std::vector<uint32_t> order = *side;
      rng.Shuffle(&order);
      const size_t s = order.size();
      for (size_t i = 0; i < s; ++i) {
        add(Sorted({order[i], order[(i + 1) % s], order[(i + 2) % s]}));
      }
    }
    const std::vector<HEdge> extra = DrawDistinct(
        side->size(), &taken, [&] { return RandomTriple(rng, *side); });
    in.final_edges.insert(in.final_edges.end(), extra.begin(), extra.end());
  }
  in.planted_cut = 3;
  const std::vector<HEdge> crossing =
      DrawDistinct(in.planted_cut, &taken, [&] {
        const uint32_t a = side_a[rng.Below(side_a.size())];
        const uint32_t b = side_b[rng.Below(side_b.size())];
        uint32_t c = perm[rng.Below(n)];
        while (c == a || c == b) c = perm[rng.Below(n)];
        return Sorted({a, b, c});
      });
  in.final_edges.insert(in.final_edges.end(), crossing.begin(), crossing.end());
  const std::vector<HEdge> decoy_edges =
      DrawDistinct(decoys, &taken, [&] { return RandomTriple(rng, perm); });
  in.updates = AssembleChurn(in.final_edges, decoy_edges, rng);
  return in;
}

}  // namespace e2e
