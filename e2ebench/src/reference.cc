#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace e2e {
namespace {

struct Dsu {
  explicit Dsu(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0u);
  }
  uint32_t Find(uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<uint32_t> parent;
};

}  // namespace

std::vector<uint32_t> ComponentLabels(size_t n, const std::vector<HEdge>& edges,
                                      size_t* num_components) {
  Dsu dsu(n);
  for (const HEdge& e : edges) {
    for (size_t i = 1; i < e.size(); ++i) dsu.Union(e[0], e[i]);
  }
  std::vector<uint32_t> label(n, UINT32_MAX);
  std::vector<uint32_t> root_label(n, UINT32_MAX);
  uint32_t next = 0;
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t r = dsu.Find(v);
    if (root_label[r] == UINT32_MAX) root_label[r] = next++;
    label[v] = root_label[r];
  }
  *num_components = next;
  return label;
}

Adjacency BuildAdjacency(size_t n, const std::vector<HEdge>& edges) {
  Adjacency adj;
  adj.offset.assign(n + 1, 0);
  for (const HEdge& e : edges) {
    ++adj.offset[e[0] + 1];
    ++adj.offset[e[1] + 1];
  }
  for (size_t v = 0; v < n; ++v) adj.offset[v + 1] += adj.offset[v];
  adj.neighbor.resize(adj.offset[n]);
  std::vector<uint32_t> fill(adj.offset.begin(), adj.offset.end() - 1);
  for (const HEdge& e : edges) {
    adj.neighbor[fill[e[0]]++] = e[1];
    adj.neighbor[fill[e[1]]++] = e[0];
  }
  return adj;
}

bool DisconnectsRef(const Adjacency& adj, const std::vector<uint32_t>& s) {
  const size_t n = adj.offset.size() - 1;
  std::vector<char> seen(n, 0);
  size_t removed = 0;
  for (uint32_t v : s) {
    if (!seen[v]) ++removed;
    seen[v] = 1;
  }
  if (removed + 1 >= n) return false;  // at most one survivor
  uint32_t start = 0;
  while (seen[start]) ++start;
  std::vector<uint32_t> queue{start};
  seen[start] = 1;
  size_t reached = 1;
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t v = queue[head];
    for (uint32_t j = adj.offset[v]; j < adj.offset[v + 1]; ++j) {
      const uint32_t w = adj.neighbor[j];
      if (seen[w]) continue;
      seen[w] = 1;
      ++reached;
      queue.push_back(w);
    }
  }
  return reached < n - removed;
}

std::vector<size_t> BridgeIndices(size_t n, const std::vector<HEdge>& edges) {
  // Incidence graph: nodes [0, n) are vertices, n + i is hyperedge i.
  const size_t nodes = n + edges.size();
  std::vector<std::vector<uint32_t>> inc(n);
  for (size_t i = 0; i < edges.size(); ++i) {
    for (uint32_t v : edges[i]) inc[v].push_back(static_cast<uint32_t>(n + i));
  }
  auto degree = [&](uint32_t x) -> size_t {
    return x < n ? inc[x].size() : edges[x - n].size();
  };
  auto neighbor = [&](uint32_t x, size_t j) -> uint32_t {
    return x < n ? inc[x][j] : edges[x - n][j];
  };

  std::vector<uint32_t> disc(nodes, 0), low(nodes, 0);
  std::vector<uint32_t> parent(nodes, UINT32_MAX);
  std::vector<char> articulation(nodes, 0);
  uint32_t timer = 0;
  struct Frame {
    uint32_t node;
    size_t next;
  };
  std::vector<Frame> stack;
  for (uint32_t root = 0; root < n; ++root) {
    if (disc[root] != 0) continue;
    disc[root] = low[root] = ++timer;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const uint32_t u = f.node;
      if (f.next < degree(u)) {
        const uint32_t w = neighbor(u, f.next++);
        if (disc[w] == 0) {
          parent[w] = u;
          disc[w] = low[w] = ++timer;
          stack.push_back({w, 0});
        } else if (w != parent[u]) {
          low[u] = std::min(low[u], disc[w]);
        }
        continue;
      }
      stack.pop_back();
      if (parent[u] != UINT32_MAX) {
        const uint32_t p = parent[u];
        low[p] = std::min(low[p], low[u]);
        // A hyperedge node is never a DFS root, so the non-root rule
        // decides it: some child subtree cannot climb above it.
        if (low[u] >= disc[p]) articulation[p] = 1;
      }
    }
  }
  std::vector<size_t> bridges;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (articulation[n + i]) bridges.push_back(i);
  }
  return bridges;
}

size_t CutSize(const std::vector<HEdge>& edges, const std::vector<bool>& side) {
  size_t cut = 0;
  for (const HEdge& e : edges) {
    bool in = false, out = false;
    for (uint32_t v : e) (side[v] ? in : out) = true;
    if (in && out) ++cut;
  }
  return cut;
}

uint64_t EdgeKey(const HEdge& e) {
  if (e.size() > 3 || e.back() >= (1u << 21)) {
    std::fprintf(stderr, "EdgeKey: edge outside rank-3 / 2^21 ids\n");
    std::abort();
  }
  uint64_t key = 0;
  for (uint32_t v : e) key = (key << 21) | (v + 1);
  return key;
}

}  // namespace e2e
