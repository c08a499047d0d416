// Output digests of the Theorem 1.1 solve path.
//
// The golden tests pin round counts; these pin the solve OUTPUTS: the exact
// bits of x and of the LaplacianSolveStats (iterations, restarts, kappa,
// relative residual) for a fixed set of instances, hashed and compared with
// constants recorded from the implementation.  A refactor of the solver or
// Chebyshev layers that changes a single output bit fails here.  Every case
// runs at threads {1, 8} and must land on the same constant.
//
// The instances carry explicit seeds and an explicit numerics backend, so the
// environment legs (LAPCLIQUE_THREADS / ROUTING / NUMERICS / TEST_SEED)
// cannot move them: outputs do not depend on the routing mode.
//
// Re-recording is a deliberate act: only a change that is MEANT to alter
// solve outputs may update these constants, and it must say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"

namespace lapclique {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// FNV-1a over the bit patterns of a vector's entries.
std::uint64_t digest(const linalg::Vec& x) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : x) {
    std::uint64_t u = bits_of(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= u & 0xffU;
      h *= 1099511628211ULL;
      u >>= 8;
    }
  }
  return h;
}

struct Pinned {
  std::uint64_t x = 0;
  int iterations = 0;
  int restarts = 0;
  std::uint64_t kappa = 0;
  std::uint64_t relative_residual = 0;
};

std::string show(const Pinned& p) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{0x%016llxULL, %d, %d, 0x%016llxULL, 0x%016llxULL}",
                static_cast<unsigned long long>(p.x), p.iterations, p.restarts,
                static_cast<unsigned long long>(p.kappa),
                static_cast<unsigned long long>(p.relative_residual));
  return buf;
}

Pinned observe(const linalg::Vec& x, const solver::LaplacianSolveStats& st) {
  return {digest(x), st.chebyshev_iterations, st.restarts, bits_of(st.kappa),
          bits_of(st.relative_residual)};
}

void expect_pinned(const Pinned& got, const Pinned& want, const std::string& what) {
  EXPECT_EQ(got.x, want.x) << what << " got " << show(got);
  EXPECT_EQ(got.iterations, want.iterations) << what << " got " << show(got);
  EXPECT_EQ(got.restarts, want.restarts) << what << " got " << show(got);
  EXPECT_EQ(got.kappa, want.kappa) << what << " got " << show(got);
  EXPECT_EQ(got.relative_residual, want.relative_residual)
      << what << " got " << show(got);
}

Graph weighted_gnm(int n, int m, std::uint64_t seed) {
  return graph::with_random_weights(graph::random_connected_gnm(n, m, seed), 8,
                                    seed + 1);
}

linalg::Vec sum_zero_rhs(int n, std::uint64_t seed) {
  graph::SplitMix64 rng(seed);
  linalg::Vec b(static_cast<std::size_t>(n));
  double mean = 0;
  for (double& v : b) {
    v = 2.0 * rng.next_double() - 1.0;
    mean += v;
  }
  mean /= n;
  for (double& v : b) v -= mean;
  return b;
}

Runtime runtime_at(int threads, fault::FaultPlan* plan = nullptr) {
  Runtime rt;
  rt.threads = threads;
  rt.numerics = linalg::Backend::kAuto;
  rt.faults = plan;
  return rt;
}

constexpr int kThreads[] = {1, 8};

// n = 96 resolves to the dense backend.
constexpr int kDenseN = 96;
const Graph& dense_graph() {
  static const Graph g = weighted_gnm(kDenseN, 384, 1501);
  return g;
}

TEST(SolveDigest, DenseResolvingSolve) {
  const Pinned want = {0x5a9ed22643d8aab0ULL, 45, 0, 0x401463d78c4aaefaULL, 0x3c8f62218414049cULL};
  const linalg::Vec b = sum_zero_rhs(kDenseN, 1601);
  for (const int t : kThreads) {
    const auto rep = solve_laplacian(dense_graph(), b, 1e-8, {}, runtime_at(t));
    ASSERT_EQ(rep.stats.factor.chosen, linalg::Backend::kDense);
    expect_pinned(observe(rep.x, rep.stats), want, "threads=" + std::to_string(t));
  }
}

// The solve workload's shape: n = 512, m = 2048 resolves to the sparse backend.
TEST(SolveDigest, SparseResolvingSolve) {
  const Pinned want = {0x5538119f619de343ULL, 35, 0, 0x4014d48d235b9c06ULL, 0x3cf11b47a5cfbc0aULL};
  const Graph g = weighted_gnm(512, 2048, 1502);
  const linalg::Vec b = sum_zero_rhs(512, 1602);
  for (const int t : kThreads) {
    const auto rep = solve_laplacian(g, b, 1e-6, {}, runtime_at(t));
    ASSERT_EQ(rep.stats.factor.chosen, linalg::Backend::kSparse);
    expect_pinned(observe(rep.x, rep.stats), want, "threads=" + std::to_string(t));
  }
}

TEST(SolveDigest, BatchColumns) {
  const Pinned want[3] = {
      {0xc6c533f0d5c42f5cULL, 45, 0, 0x401463d78c4aaefaULL, 0x3c4e2474e55b0909ULL},
      {0xcf61e356b9005d5eULL, 45, 0, 0x401463d78c4aaefaULL, 0x3c7750aa96421c45ULL},
      {0x817fa6e41910d40eULL, 45, 0, 0x401463d78c4aaefaULL, 0x3c80cb5d720b6810ULL},
  };
  const std::vector<linalg::Vec> bs = {sum_zero_rhs(kDenseN, 1701),
                                       sum_zero_rhs(kDenseN, 1702),
                                       sum_zero_rhs(kDenseN, 1703)};
  for (const int t : kThreads) {
    const auto rep = solve_laplacian_batch(dense_graph(), bs, 1e-8, {}, runtime_at(t));
    ASSERT_EQ(rep.columns.size(), 3u);
    ASSERT_EQ(rep.stats.size(), 3u);
    for (std::size_t c = 0; c < 3; ++c) {
      expect_pinned(observe(rep.columns[c], rep.stats[c]), want[c],
                    "threads=" + std::to_string(t) + " column " + std::to_string(c));
    }
  }
}

// solver-nan@0 poisons the first Chebyshev pass: the solve restarts once.
TEST(SolveDigest, RestartPath) {
  const Pinned want = {0x631497fa58fc7861ULL, 108, 1, 0x402463d78c4aaefaULL, 0x3c79a8b6dfda64a7ULL};
  const linalg::Vec b = sum_zero_rhs(kDenseN, 1801);
  for (const int t : kThreads) {
    fault::FaultPlan plan(fault::parse_fault_spec("solver-nan@0"), 7);
    const auto rep = solve_laplacian(dense_graph(), b, 1e-8, {}, runtime_at(t, &plan));
    EXPECT_EQ(rep.stats.restarts, 1);
    EXPECT_FALSE(rep.stats.exact_fallback);
    expect_pinned(observe(rep.x, rep.stats), want, "threads=" + std::to_string(t));
  }
}

// solver-nan@all poisons every pass: the solve degrades to the exact factor.
TEST(SolveDigest, ExactFallbackPath) {
  const Pinned want = {0x0a9c95c7d107b912ULL, 1087, 7, 0x408463d78c4aaefaULL, 0x3cc719c60310b818ULL};
  const linalg::Vec b = sum_zero_rhs(kDenseN, 1802);
  for (const int t : kThreads) {
    fault::FaultPlan plan(fault::parse_fault_spec("solver-nan@all"), 7);
    const auto rep = solve_laplacian(dense_graph(), b, 1e-8, {}, runtime_at(t, &plan));
    EXPECT_TRUE(rep.stats.exact_fallback);
    EXPECT_EQ(plan.stats().solver_fallbacks, 1);
    expect_pinned(observe(rep.x, rep.stats), want, "threads=" + std::to_string(t));
  }
}

}  // namespace
}  // namespace lapclique
