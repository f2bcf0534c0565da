#ifndef TRINITY_ANALYTICS_INTERSECT_H_
#define TRINITY_ANALYTICS_INTERSECT_H_

#include <cstddef>
#include <cstdint>

namespace trinity::analytics {

/// Sorted-set intersection kernels over degree-ordered vertex ranks (u32,
/// strictly ascending). These are the raw-speed core of triangle counting
/// and k-truss: the caller (TriangleCounter) picks a kernel per vertex pair
/// by degree skew, so each kernel only has to win on its own shape.
///
/// Every kernel returns |a ∩ b| and adds its work to *comparisons — the
/// hardware-independent scoreboard the benchmarks ablate on.

/// Linear merge that reports every match: on_hit(i, j) for each
/// a[i] == b[j], in ascending order. The balanced-size workhorse; work =
/// elements advanced. Counting passes a no-op action (IntersectMerge);
/// per-edge support and the k-truss peel use the positions as edge ids.
template <typename OnHit>
std::uint64_t IntersectMergeEach(const std::uint32_t* a, std::size_t na,
                                 const std::uint32_t* b, std::size_t nb,
                                 std::uint64_t* comparisons, OnHit&& on_hit) {
  std::uint64_t hits = 0;
  std::size_t i = 0, j = 0;
  std::uint64_t steps = 0;
  while (i < na && j < nb) {
    ++steps;
    const std::uint32_t x = a[i];
    const std::uint32_t y = b[j];
    if (x == y) {
      on_hit(i, j);
      ++hits;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  *comparisons += steps;
  return hits;
}

namespace intersect_internal {

/// First index in [lo, hi) with list[index] >= key; galloping's binary-search
/// tail. Steps are charged by the caller.
inline std::size_t LowerBound(const std::uint32_t* list, std::size_t lo,
                              std::size_t hi, std::uint32_t key,
                              std::uint64_t* steps) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++*steps;
    if (list[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Gallops `small` through `large` with a monotone cursor; kSwapped tells
/// the action that `small` is the caller's b side.
template <bool kSwapped, typename OnHit>
std::uint64_t Gallop(const std::uint32_t* small, std::size_t ns,
                     const std::uint32_t* large, std::size_t nl,
                     std::uint64_t* comparisons, OnHit& on_hit) {
  std::uint64_t hits = 0;
  std::uint64_t steps = 0;
  std::size_t pos = 0;  // Search frontier in `large`; both lists ascend.
  for (std::size_t i = 0; i < ns && pos < nl; ++i) {
    const std::uint32_t key = small[i];
    // Exponential probe from the frontier...
    std::size_t bound = 1;
    while (pos + bound < nl && large[pos + bound] < key) {
      ++steps;
      bound <<= 1;
    }
    ++steps;
    // ...then binary search inside the bracketed window.
    const std::size_t hi = pos + bound < nl ? pos + bound + 1 : nl;
    pos = LowerBound(large, pos, hi, key, &steps);
    if (pos < nl && large[pos] == key) {
      if constexpr (kSwapped) {
        on_hit(pos, i);
      } else {
        on_hit(i, pos);
      }
      ++hits;
      ++pos;
    }
  }
  *comparisons += steps;
  return hits;
}

}  // namespace intersect_internal

/// Galloping (exponential probe + binary search) of the smaller list into
/// the larger, reporting on_hit(i, j) for each a[i] == b[j] — wins when the
/// size skew is large (a non-hub list probing a hub list). Work = probe
/// steps, O(min * log(max/min)).
template <typename OnHit>
std::uint64_t IntersectGallopingEach(const std::uint32_t* a, std::size_t na,
                                     const std::uint32_t* b, std::size_t nb,
                                     std::uint64_t* comparisons,
                                     OnHit&& on_hit) {
  if (na > nb) {
    return intersect_internal::Gallop<true>(b, nb, a, na, comparisons, on_hit);
  }
  return intersect_internal::Gallop<false>(a, na, b, nb, comparisons, on_hit);
}

/// List-list choice by size skew: gallop once the larger list is at least
/// `gallop_skew` times the smaller, merge otherwise — the skew gate the
/// adaptive counter applies to list-list pairs.
template <typename OnHit>
std::uint64_t IntersectEach(const std::uint32_t* a, std::size_t na,
                            const std::uint32_t* b, std::size_t nb,
                            double gallop_skew, std::uint64_t* comparisons,
                            OnHit&& on_hit) {
  const std::size_t smaller = na < nb ? na : nb;
  const std::size_t larger = na < nb ? nb : na;
  if (smaller > 0 && static_cast<double>(smaller) * gallop_skew <=
                         static_cast<double>(larger)) {
    return IntersectGallopingEach(a, na, b, nb, comparisons, on_hit);
  }
  return IntersectMergeEach(a, na, b, nb, comparisons, on_hit);
}

/// Counting forms of the two list-list kernels (no per-hit action).
std::uint64_t IntersectMerge(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint64_t* comparisons);
std::uint64_t IntersectGalloping(const std::uint32_t* a, std::size_t na,
                                 const std::uint32_t* b, std::size_t nb,
                                 std::uint64_t* comparisons);

/// List-vs-bitmap probe: counts elements of list[0..n) that are set in the
/// packed bitmap (bit r = rank r). Work = n probes, independent of the
/// bitmap side's length — the hub-list kernel.
std::uint64_t IntersectBitmapProbe(const std::uint32_t* list, std::size_t n,
                                   const std::uint64_t* bitmap,
                                   std::uint64_t* comparisons);

/// Bitmap-vs-bitmap: AND + popcount over `words` 64-bit words. Runtime-
/// dispatched to an AVX2 body when the CPU has it (4 words per vector op);
/// the densest hub-hub pairs in power-law graphs land here. Work = words.
std::uint64_t IntersectBitmapWords(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t words,
                                   std::uint64_t* comparisons);

/// Exposed for tests: the scalar AND+popcount body and whichever body
/// IntersectBitmapWords dispatched to at startup must agree bit-for-bit.
std::uint64_t AndPopcountScalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words);
/// True when the AVX2 body was selected at startup.
bool BitmapKernelUsesAvx2();

}  // namespace trinity::analytics

#endif  // TRINITY_ANALYTICS_INTERSECT_H_
