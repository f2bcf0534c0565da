#include "analytics/intersect.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define TRINITY_HAVE_AVX2_DISPATCH 1
#endif

namespace trinity::analytics {

namespace {

/// The counting forms discard positions.
constexpr auto kNoHitAction = [](std::size_t, std::size_t) {};

}  // namespace

std::uint64_t IntersectMerge(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint64_t* comparisons) {
  return IntersectMergeEach(a, na, b, nb, comparisons, kNoHitAction);
}

std::uint64_t IntersectGalloping(const std::uint32_t* a, std::size_t na,
                                 const std::uint32_t* b, std::size_t nb,
                                 std::uint64_t* comparisons) {
  return IntersectGallopingEach(a, na, b, nb, comparisons, kNoHitAction);
}

std::uint64_t IntersectBitmapProbe(const std::uint32_t* list, std::size_t n,
                                   const std::uint64_t* bitmap,
                                   std::uint64_t* comparisons) {
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = list[i];
    hits += (bitmap[r >> 6] >> (r & 63)) & 1u;
  }
  *comparisons += n;
  return hits;
}

std::uint64_t AndPopcountScalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) {
  std::uint64_t hits = 0;
  for (std::size_t w = 0; w < words; ++w) {
    hits += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return hits;
}

namespace {

#ifdef TRINITY_HAVE_AVX2_DISPATCH
__attribute__((target("avx2"))) std::uint64_t AndPopcountAvx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  std::uint64_t hits = 0;
  std::size_t w = 0;
  alignas(32) std::uint64_t lanes[4];
  for (; w + 4 <= words; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                       _mm256_and_si256(va, vb));
    hits += static_cast<std::uint64_t>(__builtin_popcountll(lanes[0])) +
            static_cast<std::uint64_t>(__builtin_popcountll(lanes[1])) +
            static_cast<std::uint64_t>(__builtin_popcountll(lanes[2])) +
            static_cast<std::uint64_t>(__builtin_popcountll(lanes[3]));
  }
  for (; w < words; ++w) {
    hits += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return hits;
}
#endif

using AndPopcountFn = std::uint64_t (*)(const std::uint64_t*,
                                        const std::uint64_t*, std::size_t);

AndPopcountFn PickAndPopcount() {
#ifdef TRINITY_HAVE_AVX2_DISPATCH
  if (__builtin_cpu_supports("avx2")) return &AndPopcountAvx2;
#endif
  return &AndPopcountScalar;
}

const AndPopcountFn kAndPopcount = PickAndPopcount();

}  // namespace

bool BitmapKernelUsesAvx2() {
#ifdef TRINITY_HAVE_AVX2_DISPATCH
  return kAndPopcount != &AndPopcountScalar;
#else
  return false;
#endif
}

std::uint64_t IntersectBitmapWords(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t words,
                                   std::uint64_t* comparisons) {
  *comparisons += words;
  return kAndPopcount(a, b, words);
}

}  // namespace trinity::analytics
