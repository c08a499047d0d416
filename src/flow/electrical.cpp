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
    factor_ = linalg::BackendLaplacianFactor::factor(laplacian_, opt_.backend);
  } else {
    solver::LaplacianSolverOptions sopt;
    sopt.backend = opt_.backend;
    solver_ = std::make_unique<solver::LaplacianSolver>(conductance_graph_, sopt);
  }
}

linalg::Vec ElectricalSolver::potentials(std::span<const double> chi,
                                         clique::Network* net,
                                         std::int64_t direct_rounds) const {
  if (static_cast<int>(chi.size()) != n_) {
    throw std::invalid_argument("ElectricalSolver::potentials: size mismatch");
  }
  obs::RoundLedger* tracer = net != nullptr ? net->tracer() : nullptr;
  LAPCLIQUE_TRACE_SPAN(tracer, "electrical_solve");
  obs::count(tracer, "electrical_solves");
  if (opt_.mode == ElectricalMode::kDirect) {
    // Each solve round is a clique-wide broadcast (the same words the
    // Sparsified mode charges through LaplacianSolver::solve).
    if (net != nullptr) net->charge_all_to_all(direct_rounds);
    return factor_.solve(chi);
  }
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
  return calibrate_rounds(n_, edges_, eps, opt_.backend);
}

std::int64_t calibrate_rounds(int n, std::span<const ElectricalEdge> edges, double eps,
                              linalg::Backend backend) {
  // Run one full Theorem 1.1 solve against a unit demand pair and report the
  // rounds it charges.
  if (n < 2) return 0;
  clique::Network net(n);
  solver::LaplacianSolverOptions opt;
  opt.backend = backend;
  const solver::LaplacianSolver s(conductance_graph(n, edges), opt, &net);
  linalg::Vec chi(static_cast<std::size_t>(n), 0.0);
  chi[0] = -1.0;
  chi[static_cast<std::size_t>(n - 1)] = 1.0;
  (void)s.solve(chi, eps, nullptr, &net);
  return net.rounds();
}

std::int64_t charge_calibration(clique::Network& net, const char* phase, int n,
                                std::span<const ElectricalEdge> edges, double eps,
                                linalg::Backend backend) {
  net.set_phase(phase);
  const std::int64_t rounds = calibrate_rounds(n, edges, eps, backend);
  net.charge_all_to_all(rounds);
  return rounds;
}

}  // namespace lapclique::flow
