#include "flow/electrical.hpp"

#include <stdexcept>

#include "exec/pool.hpp"
#include "graph/laplacian.hpp"

namespace lapclique::flow {

namespace {

graph::Graph conductance_graph(int n, std::span<const ElectricalEdge> edges) {
  graph::Graph g(n);
  for (const ElectricalEdge& e : edges) {
    if (!(e.resistance > 0)) {
      throw std::invalid_argument("ElectricalSolver: resistances must be positive");
    }
    g.add_edge(e.u, e.v, 1.0 / e.resistance);
  }
  return g;
}

}  // namespace

ElectricalSolver::ElectricalSolver(int n, std::vector<ElectricalEdge> edges,
                                   const ElectricalOptions& opt)
    : n_(n),
      edges_(std::move(edges)),
      opt_(opt),
      conductance_graph_(conductance_graph(n, edges_)) {
  laplacian_ = graph::laplacian(conductance_graph_);
  if (opt_.mode == ElectricalMode::kDirect) {
    factor_ = linalg::BackendLaplacianFactor::factor(laplacian_,
                                                     opt_.solver.backend);
  } else {
    solver_ = std::make_unique<solver::LaplacianSolver>(conductance_graph_,
                                                        opt_.solver);
  }
}

linalg::Vec ElectricalSolver::potentials(std::span<const double> chi,
                                         clique::Network* net) const {
  if (static_cast<int>(chi.size()) != n_) {
    throw std::invalid_argument("ElectricalSolver::potentials: size mismatch");
  }
  if (opt_.mode == ElectricalMode::kDirect) {
    return factor_.solve(chi);
  }
  LAPCLIQUE_TRACE_SPAN(net != nullptr ? net->tracer() : nullptr,
                       "electrical_solve");
  obs::count(net != nullptr ? net->tracer() : nullptr, "electrical_solves");
  return solver_->solve(chi, opt_.eps, nullptr, net);
}

std::vector<double> ElectricalSolver::induced_flow(std::span<const double> phi) const {
  std::vector<double> f(edges_.size());
  exec::parallel_for(
      static_cast<std::int64_t>(edges_.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const ElectricalEdge& e = edges_[static_cast<std::size_t>(i)];
          f[static_cast<std::size_t>(i)] =
              (phi[static_cast<std::size_t>(e.v)] -
               phi[static_cast<std::size_t>(e.u)]) /
              e.resistance;
        }
      });
  return f;
}

std::int64_t ElectricalSolver::calibrate(double eps) const {
  return calibrate_rounds(n_, edges_, eps, opt_.solver);
}

std::int64_t calibrate_rounds(int n, std::span<const ElectricalEdge> edges, double eps,
                              const solver::LaplacianSolverOptions& opt) {
  // Run one full Theorem 1.1 solve against a unit demand pair and report the
  // rounds it charges.
  if (n < 2) return 0;
  clique::Network net(n);
  const solver::LaplacianSolver s(conductance_graph(n, edges), opt, &net);
  linalg::Vec chi(static_cast<std::size_t>(n), 0.0);
  chi[0] = -1.0;
  chi[static_cast<std::size_t>(n - 1)] = 1.0;
  (void)s.solve(chi, eps, nullptr, &net);
  return net.rounds();
}

}  // namespace lapclique::flow
