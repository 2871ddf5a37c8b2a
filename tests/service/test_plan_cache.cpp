#include "service/plan_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "matrices/generators.hpp"
#include "service/fingerprint.hpp"
#include "service/solve_service.hpp"

namespace bars::service {
namespace {

TEST(Fingerprint, DeterministicAndValueSensitive) {
  const Csr a = fv_like(8, 0.5);
  const Csr b = fv_like(8, 0.5);
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(b));
  const Csr c = fv_like(8, 0.6);   // same structure, different values
  const Csr d = fv_like(9, 0.5);   // different structure
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(c));
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(d));
}

/// A 3x3 tridiagonal matrix as raw arrays: 40 header bytes, 32 of
/// row_ptr and 56 each of col_idx and values, so the hash runs both its
/// four-lane loop and its word tail.
struct RawCsr {
  index_t rows = 3;
  index_t cols = 3;
  std::vector<index_t> row_ptr{0, 2, 5, 7};
  std::vector<index_t> col_idx{0, 1, 0, 1, 2, 1, 2};
  std::vector<value_t> values{4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0};

  [[nodiscard]] std::uint64_t fingerprint() const {
    return matrix_fingerprint(rows, cols, row_ptr, col_idx, values);
  }
  [[nodiscard]] Csr csr() const {
    return Csr(rows, cols, row_ptr, col_idx, values);
  }
};

/// Flip each bit of `obj`'s bytes in turn and report any flip that
/// leaves `raw`'s fingerprint unchanged.
void expect_every_bit_flip_changes(RawCsr& raw, void* obj, std::size_t bytes,
                                   const char* what) {
  const std::uint64_t base = raw.fingerprint();
  auto* p = static_cast<unsigned char*>(obj);
  for (std::size_t bit = 0; bit < 8 * bytes; ++bit) {
    p[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(raw.fingerprint(), base) << what << " bit " << bit;
    p[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(raw.fingerprint(), base);
}

TEST(Fingerprint, EveryBitFlipChangesIt) {
  RawCsr raw;
  expect_every_bit_flip_changes(raw, &raw.rows, sizeof(raw.rows), "rows");
  expect_every_bit_flip_changes(raw, &raw.cols, sizeof(raw.cols), "cols");
  expect_every_bit_flip_changes(raw, raw.row_ptr.data(),
                                raw.row_ptr.size() * sizeof(index_t),
                                "row_ptr");
  expect_every_bit_flip_changes(raw, raw.col_idx.data(),
                                raw.col_idx.size() * sizeof(index_t),
                                "col_idx");
  expect_every_bit_flip_changes(raw, raw.values.data(),
                                raw.values.size() * sizeof(value_t), "values");
}

TEST(Fingerprint, RawArraysMatchTheCsrForm) {
  const RawCsr raw;
  EXPECT_EQ(raw.fingerprint(), matrix_fingerprint(raw.csr()));
}

TEST(Fingerprint, SignedZerosDiffer) {
  RawCsr pos;
  pos.values[1] = 0.0;
  RawCsr neg;
  neg.values[1] = -0.0;
  EXPECT_NE(matrix_fingerprint(pos.csr()), matrix_fingerprint(neg.csr()));
}

TEST(Fingerprint, MovingAnEntryToAnotherRowChangesIt) {
  // Entry (0, 1) moves to (1, 1) with its value: col_idx and values
  // stay byte-identical, and only row_ptr tells the two apart.
  const Csr a(2, 3, {0, 2, 3}, {0, 1, 2}, {4.0, -1.0, 4.0});
  const Csr b(2, 3, {0, 1, 3}, {0, 1, 2}, {4.0, -1.0, 4.0});
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(b));
}

TEST(Fingerprint, EmptyMatrixHashes) {
  const Csr empty;
  EXPECT_EQ(matrix_fingerprint(empty), matrix_fingerprint(Csr{}));
  EXPECT_NE(matrix_fingerprint(empty), matrix_fingerprint(RawCsr{}.csr()));
}

TEST(Fingerprint, GoldenValue) {
  // Pins the determinism promise of fingerprint.hpp: a change to the
  // hash, its seeding, or what it covers shows up here (and silently
  // invalidates any fingerprint kept across a process restart).
  EXPECT_EQ(matrix_fingerprint(RawCsr{}.csr()), 0xe2d138e96acd3c5dULL);
}

TEST(Fingerprint, Hash64MatchesXxHash64TestVectors) {
  // Published XXH64 values (seed 0) for inputs shorter than one
  // 32-byte stripe: the empty input, a lone byte, and the word,
  // half-word and byte tails together.
  const auto h = [](const char* s) {
    return hash64(s, std::char_traits<char>::length(s), 0);
  };
  EXPECT_EQ(h(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(h("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(h("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(h("message digest"), 0x066ed728fceeb3beULL);
}

TEST(PlanCache, ZeroCapacityThrows) {
  EXPECT_THROW(PlanCache(0), std::invalid_argument);
}

TEST(PlanCache, MissBuildsThenHits) {
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  bool hit = true;
  const auto p1 = cache.acquire(a, PlanConfig{}, &hit);
  ASSERT_NE(p1, nullptr);
  EXPECT_FALSE(hit);
  ASSERT_NE(p1->kernel, nullptr);
  EXPECT_EQ(p1->matrix.rows(), a.rows());
  EXPECT_EQ(p1->fingerprint, matrix_fingerprint(a));
  EXPECT_EQ(p1->seed_rhs.size(), static_cast<std::size_t>(a.rows()));

  const auto p2 = cache.acquire(a, PlanConfig{}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.capacity, 4u);
}

TEST(PlanCache, KeyedAndUnkeyedAcquireShareOnePlan) {
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  bool hit = true;
  const auto p1 = cache.acquire(a, PlanConfig{}, &hit);
  EXPECT_FALSE(hit);
  const auto p2 = cache.acquire(matrix_fingerprint(a), a, PlanConfig{}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(PlanCache, ServedRequestLeavesItsPlanUnderTheMatrixFingerprint) {
  // The service keys the cache with the fingerprint it took at submit;
  // that key must be matrix_fingerprint(a), or peek by content misses.
  ServiceOptions so;
  so.num_workers = 1;
  SolveService svc(so);
  const auto a = std::make_shared<const Csr>(fv_like(8, 0.5));
  SolveRequest req;
  req.matrix = a;
  req.b = Vector(static_cast<std::size_t>(a->rows()), 1.0);
  req.options.block_size = 16;
  req.options.local_iters = 2;
  const PlanConfig cfg{16, 2, req.options.backend};
  ASSERT_EQ(svc.plan_cache().peek(matrix_fingerprint(*a), cfg), nullptr);
  const SolveResponse r = svc.solve(std::move(req));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_NE(svc.plan_cache().peek(matrix_fingerprint(*a), cfg), nullptr);
}

TEST(PlanCache, DistinctConfigsGetDistinctPlans) {
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  const auto p1 = cache.acquire(a, PlanConfig{.block_size = 8, .local_iters = 2});
  const auto p2 = cache.acquire(a, PlanConfig{.block_size = 16, .local_iters = 2});
  EXPECT_NE(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCache, BackendIsPartOfTheKey) {
  // Backends differ in memory layout and FP rounding, so a plan built
  // for one backend must never be served to a request asking for
  // another: same matrix + same partition config but different backend
  // names are two misses and two resident plans.
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  bool hit = true;
  const auto scalar =
      cache.acquire(a, PlanConfig{.backend = "scalar"}, &hit);
  EXPECT_FALSE(hit);
  const auto simd = cache.acquire(a, PlanConfig{.backend = "simd"}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(scalar.get(), simd.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().size, 2u);

  // Both kernels built (an unavailable simd degrades to a scalar
  // kernel, but the plan still lives under the requested key).
  ASSERT_NE(scalar->kernel, nullptr);
  ASSERT_NE(simd->kernel, nullptr);
  EXPECT_EQ(scalar->kernel->backend_name(), "scalar");

  // Each key hits its own entry on re-acquire and peeks distinctly.
  const auto again = cache.acquire(a, PlanConfig{.backend = "simd"}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), simd.get());
  const std::uint64_t fp = matrix_fingerprint(a);
  EXPECT_EQ(cache.peek(fp, PlanConfig{.backend = "scalar"}).get(),
            scalar.get());
  EXPECT_EQ(cache.peek(fp, PlanConfig{.backend = "simd"}).get(), simd.get());
}

TEST(PlanCache, UnknownBackendIsANegativeEntry) {
  // A typo'd backend name fails the build (std::invalid_argument from
  // backend::build_kernel) and is cached as a negative entry, so repeat
  // offenders fail fast like any other construction failure.
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  bool hit = true;
  const auto p1 = cache.acquire(a, PlanConfig{.backend = "cuda"}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(p1->kernel, nullptr);
  EXPECT_NE(p1->kernel_error.find("cuda"), std::string::npos);
  const auto p2 = cache.acquire(a, PlanConfig{.backend = "cuda"}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());
  // The well-formed config on the same matrix is unaffected.
  const auto good = cache.acquire(a, PlanConfig{}, &hit);
  EXPECT_NE(good->kernel, nullptr);
}

TEST(PlanCache, LruEvictionUnderChurn) {
  PlanCache cache(2);
  const Csr a = fv_like(4, 0.5);
  const Csr b = fv_like(5, 0.5);
  const Csr c = fv_like(6, 0.5);
  bool hit = false;
  (void)cache.acquire(a, PlanConfig{}, &hit);
  (void)cache.acquire(b, PlanConfig{}, &hit);
  (void)cache.acquire(c, PlanConfig{}, &hit);  // evicts a (LRU)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);

  (void)cache.acquire(b, PlanConfig{}, &hit);  // still resident
  EXPECT_TRUE(hit);
  (void)cache.acquire(a, PlanConfig{}, &hit);  // evicted above -> rebuild
  EXPECT_FALSE(hit);
  // b was touched after c, so rebuilding a evicted c.
  EXPECT_EQ(cache.peek(matrix_fingerprint(c), PlanConfig{}), nullptr);
  EXPECT_NE(cache.peek(matrix_fingerprint(b), PlanConfig{}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(PlanCache, PeekDoesNotRefreshLru) {
  PlanCache cache(2);
  const Csr a = fv_like(4, 0.5);
  const Csr b = fv_like(5, 0.5);
  const Csr c = fv_like(6, 0.5);
  (void)cache.acquire(a, PlanConfig{});
  (void)cache.acquire(b, PlanConfig{});
  // Peeking a must not promote it: the next insertion still evicts a.
  EXPECT_NE(cache.peek(matrix_fingerprint(a), PlanConfig{}), nullptr);
  (void)cache.acquire(c, PlanConfig{});
  EXPECT_EQ(cache.peek(matrix_fingerprint(a), PlanConfig{}), nullptr);
  EXPECT_NE(cache.peek(matrix_fingerprint(b), PlanConfig{}), nullptr);
}

TEST(PlanCache, EvictedPlanStaysValidWhileHeld) {
  PlanCache cache(1);
  const Csr a = fv_like(6, 0.5);
  const auto held = cache.acquire(a, PlanConfig{});
  ASSERT_NE(held->kernel, nullptr);
  // Churn far past capacity while holding the original plan.
  for (int n = 7; n < 12; ++n) {
    (void)cache.acquire(fv_like(n, 0.5), PlanConfig{});
  }
  EXPECT_GE(cache.stats().evictions, 4u);
  // The held plan is untouched by eviction: kernel still usable.
  EXPECT_EQ(held->kernel->num_rows(), a.rows());
  EXPECT_EQ(held->matrix.rows(), a.rows());
}

TEST(PlanCache, KernelFailureIsCachedWithReason) {
  // Off-diagonal-only matrix: BlockJacobiKernel construction fails
  // (zero diagonal), and the failure itself is cached.
  const Csr bad(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  PlanCache cache(2);
  bool hit = true;
  const auto p1 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1->kernel, nullptr);
  EXPECT_FALSE(p1->kernel_error.empty());

  const auto p2 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_TRUE(hit);  // repeat offenders fail fast, no rebuild attempt
  EXPECT_EQ(p1.get(), p2.get());
}

TEST(PlanCache, NegativeEntryExpiresAfterTtl) {
  const Csr bad(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  PlanCacheOptions opts;
  opts.capacity = 2;
  opts.negative_ttl = std::chrono::milliseconds(1);
  PlanCache cache(opts);

  bool hit = true;
  const auto p1 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(p1->kernel, nullptr);
  EXPECT_EQ(cache.stats().negative_entries, 1u);

  // Within the TTL a cached failure is authoritative; past it the next
  // acquire rebuilds from scratch and counts as a miss, so a transient
  // construction failure can never poison the fingerprint forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(cache.peek(matrix_fingerprint(bad), PlanConfig{}), nullptr);
  const auto p2 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(p1.get(), p2.get());  // rebuilt (still fails: bad matrix)
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.negative_expirations, 1u);
  EXPECT_EQ(s.misses, 2u);
}

TEST(PlanCache, ZeroTtlMeansNegativeEntriesNeverExpire) {
  const Csr bad(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  PlanCacheOptions opts;
  opts.capacity = 2;
  opts.negative_ttl = std::chrono::milliseconds(0);  // pre-TTL behavior
  PlanCache cache(opts);
  bool hit = true;
  const auto p1 = cache.acquire(bad, PlanConfig{}, &hit);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto p2 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().negative_expirations, 0u);
}

TEST(PlanCache, InjectedFailureProducesNegativeEntryButSparesHits) {
  const Csr good = fv_like(6, 0.5);
  PlanCache cache(4);
  bool hit = true;

  // An injected failure poisons the *build* it rides on...
  const auto p1 =
      cache.acquire(good, PlanConfig{}, &hit, "injected (chaos)");
  EXPECT_FALSE(hit);
  EXPECT_EQ(p1->kernel, nullptr);
  EXPECT_EQ(p1->kernel_error, "injected (chaos)");
  EXPECT_EQ(cache.stats().negative_entries, 1u);

  // ...but an already-built plan does not retroactively fail.
  cache.clear();
  const auto p2 = cache.acquire(good, PlanConfig{}, &hit);
  ASSERT_NE(p2->kernel, nullptr);
  const auto p3 = cache.acquire(good, PlanConfig{}, &hit, "injected (chaos)");
  EXPECT_TRUE(hit);
  EXPECT_EQ(p2.get(), p3.get());
  EXPECT_NE(p3->kernel, nullptr);
}

TEST(PlanCache, ClearDropsEverything) {
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  const auto held = cache.acquire(a, PlanConfig{});
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.peek(matrix_fingerprint(a), PlanConfig{}), nullptr);
  EXPECT_NE(held->kernel, nullptr);  // in-flight handle survives clear()
}

}  // namespace
}  // namespace bars::service
