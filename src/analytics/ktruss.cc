#include "analytics/ktruss.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "analytics/intersect.h"
#include "analytics/triangles.h"
#include "common/histogram.h"

namespace trinity::analytics {

std::uint32_t KTrussResult::TrussnessOf(std::uint32_t a,
                                        std::uint32_t b) const {
  // Edges are in CSR order: src ascending, then dst ascending, dst < src.
  const auto [first, last] =
      std::equal_range(src.begin(), src.end(), std::max(a, b));
  const auto end = dst.begin() + (last - src.begin());
  const auto it = std::lower_bound(dst.begin() + (first - src.begin()), end,
                                   std::min(a, b));
  return it == end || *it != std::min(a, b) ? 0 : trussness[it - dst.begin()];
}

namespace {

/// Rows of at least this undirected degree get a rank bitmap in the peel.
constexpr std::uint64_t kHubDegree = 64;
constexpr std::uint32_t kNotHub = ~std::uint32_t{0};

}  // namespace

Status KTrussDecompose(const GraphSnapshot& snapshot, KTrussResult* out,
                       KTrussStats* stats) {
  *out = KTrussResult();
  KTrussStats unused;
  if (stats == nullptr) stats = &unused;
  *stats = KTrussStats();

  // Initial supports from the triangle counter's oriented enumeration, which
  // also rejects a per-machine view; every triangle supports 3 edges.
  Stopwatch watch;
  std::vector<std::uint32_t> support;
  Status s = snapshot.Validate();
  if (s.ok()) s = CountEdgeSupport(snapshot, TriangleOptions(), &support);
  if (!s.ok()) return s;
  out->triangles =
      std::accumulate(support.begin(), support.end(), std::uint64_t{0}) / 3;
  stats->support_ms = watch.ElapsedMillis();
  const std::uint32_t n = snapshot.num_vertices();
  const std::size_t m = snapshot.adjacency.size();
  out->src.resize(m);
  out->dst = snapshot.adjacency;
  out->trussness.assign(m, 2);
  if (m == 0) return Status::OK();

  // Flat undirected CSR with edge ids, filled by a counting pass and no
  // sort: owners v go in ascending order, so each row gets its oriented
  // list (lower neighbours, ascending) and then the higher owners naming it.
  // live[v] counts v's alive edges (it picks the endpoint to scan); end[v]
  // bounds v's filled row, whose dead entries are dropped lazily.
  watch.Reset();
  std::vector<std::uint64_t> row(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    row[v + 1] += snapshot.List(v).size();
    for (const std::uint32_t u : snapshot.List(v)) ++row[u + 1];
  }
  std::vector<std::uint32_t> live(row.begin() + 1, row.end());
  std::partial_sum(row.begin(), row.end(), row.begin());
  std::vector<std::uint64_t> end(row.begin(), row.end() - 1);
  std::vector<std::uint32_t> nbr(2 * m);
  std::vector<std::uint32_t> eid(2 * m);

  // Hub rows (degree >= kHubDegree) also get a rank bitmap over all n
  // vertices with 16-bit per-word prefix counts: bit w says w is in the
  // row, and its rank is w's index in the sorted row as filled. A row must
  // fit the 16-bit counts, and its bitmap may not outweigh its CSR entries
  // more than 5x (degree >= n / 256), which bounds the memory on large
  // sparse graphs. hub_eid keeps each hub row's edge ids in filled order,
  // since compaction later shifts the row itself.
  const std::size_t words = (std::size_t{n} + 63) / 64;
  std::vector<std::uint32_t> hub(n, kNotHub);
  std::vector<std::uint64_t> hub_base{0};
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint64_t degree = row[v + 1] - row[v];
    if (degree < kHubDegree || degree * 256 < n ||
        degree > std::numeric_limits<std::uint16_t>::max()) {
      continue;
    }
    hub[v] = static_cast<std::uint32_t>(hub_base.size() - 1);
    hub_base.push_back(hub_base.back() + degree);
  }
  const std::size_t hubs = hub_base.size() - 1;
  std::vector<std::uint64_t> hub_bits(hubs * words);
  std::vector<std::uint16_t> hub_rank(hubs * words);
  std::vector<std::uint32_t> hub_eid(hub_base.back());
  const auto mark = [&](std::uint32_t v, std::uint32_t u) {
    if (hub[v] != kNotHub) {
      hub_bits[hub[v] * words + u / 64] |= std::uint64_t{1} << (u % 64);
    }
  };
  for (std::uint32_t v = 0; v < n; ++v) {
    for (auto e = static_cast<std::uint32_t>(snapshot.offsets[v]);
         e < snapshot.offsets[v + 1]; ++e) {
      const std::uint32_t u = snapshot.adjacency[e];
      out->src[e] = v;
      nbr[end[v]] = u;
      eid[end[v]++] = e;
      nbr[end[u]] = v;
      eid[end[u]++] = e;
      mark(v, u);
      mark(u, v);
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (hub[v] == kNotHub) continue;
    std::copy(eid.begin() + row[v], eid.begin() + row[v + 1],
              hub_eid.begin() + hub_base[hub[v]]);
    std::uint16_t before = 0;
    for (std::size_t w = hub[v] * words; w < (hub[v] + 1) * words; ++w) {
      hub_rank[w] = before;
      before += static_cast<std::uint16_t>(std::popcount(hub_bits[w]));
    }
  }
  stats->hub_rows = hubs;
  stats->bitmap_bytes = hub_bits.size() * sizeof(std::uint64_t) +
                        hub_rank.size() * sizeof(std::uint16_t) +
                        hub_eid.size() * sizeof(std::uint32_t);
  stats->adjacency_ms = watch.ElapsedMillis();

  // Bucket queue over supports (k-core style): edges sorted by support,
  // position[] locating each edge, bucket_start[] the first slot of each
  // support value. A decrement swaps the edge to the front of its bucket and
  // shifts the bucket boundary — O(1) per support change.
  watch.Reset();
  const std::uint32_t max_support = std::ranges::max(support);
  std::vector<std::uint32_t> bucket_start(max_support + 2, 0);
  for (std::uint32_t x : support) ++bucket_start[x + 1];
  for (std::uint32_t i = 1; i < bucket_start.size(); ++i) {
    bucket_start[i] += bucket_start[i - 1];
  }
  std::vector<std::uint32_t> order(m);
  std::vector<std::uint32_t> position(m);
  std::vector<std::uint32_t> cursor(bucket_start.begin(),
                                    bucket_start.end() - 1);
  for (std::uint32_t e = 0; e < m; ++e) {
    position[e] = cursor[support[e]]++;
    order[position[e]] = e;
  }

  // Batagelj–Zaversnik peel lifted to edges. The guard support[f] >
  // support[e] keeps every touched bucket front strictly past the scan
  // line (all slots ≤ idx hold supports ≤ support[e], so bucket_start of
  // any higher support points beyond idx), making each decrement a safe
  // O(1) swap-to-front.
  std::vector<char> alive(m, 1);
  const auto decrement = [&](std::uint32_t f) {
    const std::uint32_t sup = support[f];
    const std::uint32_t pf = position[f];
    const std::uint32_t pw = bucket_start[sup];
    const std::uint32_t w = order[pw];
    if (f != w) {
      order[pf] = w;
      order[pw] = f;
      position[f] = pw;
      position[w] = pf;
    }
    ++bucket_start[sup];
    --support[f];
  };

  const double skew = TriangleOptions().gallop_skew;
  std::uint64_t comparisons = 0;
  for (std::uint32_t idx = 0; idx < m; ++idx) {
    const std::uint32_t e = order[idx];
    alive[e] = 0;
    const std::uint32_t level = support[e];
    out->trussness[e] = level + 2;
    std::uint32_t x = out->src[e];
    std::uint32_t y = out->dst[e];
    --live[x];
    --live[y];
    // Scan one endpoint x, compacting its dead entries (e among them); the
    // other endpoint y's row is only searched. Against a hub, scan the
    // non-hub; otherwise (or between two hubs) the shorter live list.
    const bool x_hub = hub[x] != kNotHub;
    const bool y_hub = hub[y] != kNotHub;
    if (x_hub != y_hub ? x_hub : live[y] < live[x]) std::swap(x, y);
    std::uint64_t kept = row[x];
    for (std::uint64_t p = row[x]; p < end[x]; ++p) {
      if (!alive[eid[p]]) continue;
      nbr[kept] = nbr[p];
      eid[kept++] = eid[p];
    }
    end[x] = kept;
    // Triangle {x, y, w} still closed: both surviving edges lose e's
    // support, clamped at the current peel level.
    const auto closed = [&](std::uint32_t fx, std::uint32_t fy) {
      if (!alive[fy]) return;
      if (support[fx] > level) decrement(fx);
      if (support[fy] > level) decrement(fy);
    };
    if (hub[y] != kNotHub) {
      // One bitmap probe per live entry of x; a hit's rank indexes y's
      // edge ids as filled.
      const std::uint64_t* bits = hub_bits.data() + hub[y] * words;
      const std::uint16_t* rank = hub_rank.data() + hub[y] * words;
      const std::uint32_t* ye = hub_eid.data() + hub_base[hub[y]];
      for (std::uint64_t p = row[x]; p < end[x]; ++p) {
        const std::uint32_t w = nbr[p];
        const std::uint64_t word = bits[w / 64];
        const std::uint64_t bit = std::uint64_t{1} << (w % 64);
        if ((word & bit) == 0) continue;
        closed(eid[p], ye[rank[w / 64] + std::popcount(word & (bit - 1))]);
      }
      continue;
    }
    const std::uint32_t* xe = eid.data() + row[x];
    const std::uint32_t* ye = eid.data() + row[y];
    IntersectEach(nbr.data() + row[x], end[x] - row[x], nbr.data() + row[y],
                  end[y] - row[y], skew, &comparisons,
                  [&](std::size_t p, std::size_t q) { closed(xe[p], ye[q]); });
  }
  stats->peel_ms = watch.ElapsedMillis();

  out->max_trussness = std::ranges::max(out->trussness);
  return Status::OK();
}

}  // namespace trinity::analytics
