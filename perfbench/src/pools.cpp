#include "pools.hpp"

#include <cmath>
#include <cstdio>

#include "ckpt/checkpoint.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "graph/rng.hpp"
#include "linalg/backend.hpp"

namespace perfbench {

namespace lc = lapclique;

namespace {

double lg_norm(const lc::linalg::CsrMatrix& l, std::span<const double> x) {
  const lc::linalg::Vec lx = l.multiply(x);
  double s = 0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * lx[i];
  return std::sqrt(std::max(s, 0.0));
}

lc::linalg::Vec sum_zero_rhs(int n, std::uint64_t seed) {
  lc::graph::SplitMix64 rng(seed);
  lc::linalg::Vec b(static_cast<std::size_t>(n));
  double mean = 0;
  for (double& x : b) {
    x = 2.0 * rng.next_double() - 1.0;
    mean += x;
  }
  mean /= n;
  for (double& x : b) x -= mean;
  return b;
}

lc::graph::Graph weighted_gnm(int n, int m, std::uint64_t seed) {
  return lc::graph::with_random_weights(lc::graph::random_connected_gnm(n, m, seed),
                                        kMaxWeight, seed + 1);
}

/// `rhs` sum-zero right-hand sides for `g`, solved exactly by one direct
/// factorization of L_G.
std::vector<LaplacianInstance> with_right_hand_sides(const lc::graph::Graph& g,
                                                     std::uint64_t seed, int rhs) {
  const lc::linalg::CsrMatrix lg = lc::graph::laplacian(g);
  const auto exact = lc::linalg::BackendLaplacianFactor::factor(lg);
  std::vector<LaplacianInstance> out;
  for (int r = 0; r < rhs; ++r) {
    LaplacianInstance inst;
    inst.g = g;
    inst.lg = lg;
    inst.b = sum_zero_rhs(g.num_vertices(),
                          instance_seed(seed, 7, static_cast<std::uint64_t>(r)));
    inst.x_exact = exact.solve(inst.b);
    inst.x_exact_norm = lg_norm(lg, inst.x_exact);
    out.push_back(std::move(inst));
  }
  return out;
}

std::string graph_load_line(const lc::graph::Graph& g, const std::string& name) {
  json::Object req;
  req.emplace("op", "graph.load");
  req.emplace("id", "load-" + name);
  req.emplace("name", name);
  req.emplace("n", g.num_vertices());
  json::Array edges;
  for (const lc::graph::Edge& e : g.edges()) {
    edges.push_back(json::Value(json::Array{e.u, e.v, e.w}));
  }
  req.emplace("edges", json::Value(std::move(edges)));
  return json::Value(std::move(req)).dump();
}

std::string solve_line(const LaplacianInstance& inst, const std::string& graph,
                       int id) {
  json::Object req;
  req.emplace("op", "solve");
  req.emplace("id", id);
  req.emplace("graph", graph);
  req.emplace("eps", kEps);
  req.emplace("routing", "charged");
  req.emplace("threads", 1);
  json::Array b;
  for (const double x : inst.b) b.push_back(x);
  req.emplace("b", json::Value(std::move(b)));
  return json::Value(std::move(req)).dump();
}

}  // namespace

lc::Runtime bench_runtime(int threads) {
  lc::Runtime rt;
  rt.threads = threads;
  rt.routing_mode = lc::clique::RoutingMode::kCharged;
  rt.numerics = lc::linalg::Backend::kAuto;
  return rt;
}

std::vector<LaplacianInstance> make_solve_pool(std::uint64_t seed, int count) {
  std::vector<LaplacianInstance> pool;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t s = instance_seed(seed, 1, static_cast<std::uint64_t>(i));
    pool.push_back(
        std::move(with_right_hand_sides(weighted_gnm(kSolveN, kSolveM, s), s + 2, 1)
                      .front()));
  }
  return pool;
}

ServePool make_serve_pool(std::uint64_t seed) {
  ServePool pool;
  for (int gi = 0; gi < kServeGraphs; ++gi) {
    const std::string name = std::string("g").append(std::to_string(gi));
    const std::uint64_t s = instance_seed(seed, 5, static_cast<std::uint64_t>(gi));
    const lc::graph::Graph g = weighted_gnm(kServeN, kServeM, s);
    pool.load_lines.push_back(graph_load_line(g, name));
    for (LaplacianInstance& inst : with_right_hand_sides(g, s + 2, kServeRhs)) {
      pool.request_lines.push_back(
          solve_line(inst, name, static_cast<int>(pool.requests.size())));
      pool.requests.push_back(std::move(inst));
    }
  }
  return pool;
}

bool corollary_2_3_holds(const LaplacianInstance& inst,
                         std::span<const double> x, double eps) {
  if (x.size() != inst.x_exact.size()) return false;
  lc::linalg::Vec d(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i])) return false;
    d[i] = x[i] - inst.x_exact[i];
  }
  return lg_norm(inst.lg, d) <= eps * inst.x_exact_norm;
}

std::vector<FlowInstance> make_flow_pool(std::uint64_t seed, int count) {
  std::vector<FlowInstance> pool;
  for (int i = 0; i < count; ++i) {
    FlowInstance inst;
    inst.g = lc::graph::random_flow_network(
        kFlowN, kFlowM, kFlowCap, instance_seed(seed, 3, static_cast<std::uint64_t>(i)));
    inst.s = 0;
    inst.t = kFlowN - 1;
    inst.oracle = lc::flow::dinic_max_flow(inst.g, inst.s, inst.t);
    pool.push_back(std::move(inst));
  }
  return pool;
}

lc::flow::MaxFlowIpmOptions ipm_options(const FlowInstance& inst) {
  lc::flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 250;
  opt.known_value = inst.oracle.value;
  return opt;
}

bool max_flow_correct(const FlowInstance& inst,
                      const lc::flow::MaxFlowIpmReport& rep) {
  if (rep.value != inst.oracle.value) return false;
  if (static_cast<int>(rep.flow.size()) != inst.g.num_arcs()) return false;
  lc::graph::Flow f(rep.flow.size());
  for (std::size_t a = 0; a < rep.flow.size(); ++a) f[a] = static_cast<double>(rep.flow[a]);
  return lc::graph::is_feasible_st_flow(inst.g, f, inst.s, inst.t, 0.0) &&
         lc::graph::flow_value(inst.g, f, inst.s) == static_cast<double>(rep.value);
}

namespace {

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

std::string pool_digest(std::span<const LaplacianInstance> pool) {
  std::uint64_t h = lc::ckpt::fnv1a64("laplacian", 9);
  for (const LaplacianInstance& inst : pool) {
    const std::uint64_t g = lc::ckpt::graph_hash(inst.g);
    h = lc::ckpt::fnv1a64(&g, sizeof(g), h);
    h = lc::ckpt::fnv1a64(inst.b.data(), inst.b.size() * sizeof(double), h);
  }
  return hex(h);
}

std::string pool_digest(std::span<const FlowInstance> pool) {
  std::uint64_t h = lc::ckpt::fnv1a64("flow", 4);
  for (const FlowInstance& inst : pool) {
    const std::uint64_t g = lc::ckpt::graph_hash(inst.g);
    h = lc::ckpt::fnv1a64(&g, sizeof(g), h);
  }
  return hex(h);
}

}  // namespace perfbench
