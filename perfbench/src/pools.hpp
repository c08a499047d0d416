// Instance pools of the three workloads, generated from the run seed during
// set-up, together with the oracles their correctness checks use.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "flow/dinic.hpp"
#include "flow/maxflow_ipm.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "linalg/csr.hpp"

namespace perfbench {

inline constexpr double kEps = 1e-6;  // Theorem 1.1 accuracy, solve and serve

// Instance sizes.  Every pool holds same-size instances.
inline constexpr int kSolveN = 512;
inline constexpr int kSolveM = 2048;
inline constexpr int kFlowN = 32;
inline constexpr int kFlowM = 128;
inline constexpr std::int64_t kFlowCap = 4;
inline constexpr int kServeN = 256;
inline constexpr int kServeM = 1024;
inline constexpr int kServeGraphs = 4;
inline constexpr int kServeRhs = 8;  // right-hand sides per serve graph
inline constexpr std::int64_t kMaxWeight = 8;

/// A Runtime pinned to `threads`, charged routing and automatic numerics,
/// so no environment variable changes what the benchmark runs.
lapclique::Runtime bench_runtime(int threads);

/// A weighted random_connected_gnm graph, a sum-zero right-hand side, and
/// the exact solution x* from a direct factorization of L_G.
struct LaplacianInstance {
  lapclique::graph::Graph g;
  lapclique::linalg::Vec b;
  lapclique::linalg::CsrMatrix lg;
  lapclique::linalg::Vec x_exact;
  double x_exact_norm = 0;  ///< ||x*||_{L_G}
};

/// `count` solve-workload graphs (kSolveN, kSolveM, weights 1..kMaxWeight),
/// one right-hand side per graph.
std::vector<LaplacianInstance> make_solve_pool(std::uint64_t seed, int count);

/// The serve workload's resident graphs and its cycle of solve requests:
/// request j goes to graph j / rhs and carries its own right-hand side.
struct ServePool {
  std::vector<std::string> load_lines;     ///< one graph.load per graph
  std::vector<LaplacianInstance> requests;
  std::vector<std::string> request_lines;  ///< the solve request of each
};
ServePool make_serve_pool(std::uint64_t seed);

/// Corollary 2.3: ||x - x*||_{L_G} <= eps ||x*||_{L_G}.
bool corollary_2_3_holds(const LaplacianInstance& inst,
                         std::span<const double> x, double eps);

/// A random_flow_network instance (s = 0, t = n-1) and its Dinic max flow.
struct FlowInstance {
  lapclique::graph::Digraph g;
  int s = 0;
  int t = 0;
  lapclique::flow::MaxFlowResult oracle;
};

std::vector<FlowInstance> make_flow_pool(std::uint64_t seed, int count);

/// The IPM options the ipm workload runs with (bench_maxflow's settings).
lapclique::flow::MaxFlowIpmOptions ipm_options(const FlowInstance& inst);

/// The IPM's value equals Dinic's, and its flow is integral, within
/// capacities, conserving, and of that value.
bool max_flow_correct(const FlowInstance& inst,
                      const lapclique::flow::MaxFlowIpmReport& rep);

/// Hash of a pool's graphs (and right-hand sides), so the self-test can tell
/// whether two runs drew the same instances.
std::string pool_digest(std::span<const LaplacianInstance> pool);
std::string pool_digest(std::span<const FlowInstance> pool);

}  // namespace perfbench
