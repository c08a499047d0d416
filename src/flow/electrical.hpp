// Electrical flows: the inner problem of both interior point methods.
// Given per-edge resistances r_e and a demand vector chi, solve the
// Laplacian system L(G) phi = chi where L uses conductances 1/r_e, then read
// off f_e = (phi_v - phi_u) / r_e for e = (u, v) (Algorithm 3, line 2-3).
//
// Two solver modes:
//  * Sparsified — the full Theorem 1.1 pipeline (deterministic sparsifier +
//    preconditioned Chebyshev); this is what the round accounting of the
//    flow theorems is calibrated from.
//  * Direct — exact internal LDL^T solve.  The IPMs use this for the bulk of
//    their iterations for wall-clock reasons while charging the Theorem 1.1
//    round cost measured from a calibration solve (see DESIGN.md §3: round
//    complexity of a Thm 1.1 solve depends on the topology/eps, not on the
//    resistance values, so the charge is exact, not an estimate).
#pragma once

#include <cstdint>
#include <vector>

#include "cliquesim/network.hpp"
#include "linalg/backend.hpp"
#include "solver/laplacian_solver.hpp"

namespace lapclique::flow {

enum class ElectricalMode { kDirect, kSparsified };

struct ElectricalEdge {
  int u = -1;
  int v = -1;
  double resistance = 1.0;
};

struct ElectricalOptions {
  ElectricalMode mode = ElectricalMode::kDirect;
  double eps = 1e-10;  ///< for the sparsified mode
  /// Both modes take their numerics backend from solver.backend — one knob,
  /// so a Direct-mode factor and a Sparsified-mode preconditioner can never
  /// disagree about the backend within one IPM run.
  solver::LaplacianSolverOptions solver;
};

class ElectricalSolver {
 public:
  /// Builds the conductance Laplacian for the given resistances.
  ElectricalSolver(int n, std::vector<ElectricalEdge> edges,
                   const ElectricalOptions& opt = {});

  /// phi with L phi = chi (chi must sum to ~0).  If `net` is given and mode
  /// is Sparsified, Theorem 1.1 rounds are charged on it.
  [[nodiscard]] linalg::Vec potentials(std::span<const double> chi,
                                       clique::Network* net = nullptr) const;

  /// Induced flow: f_e = (phi_v - phi_u) / r_e.
  [[nodiscard]] std::vector<double> induced_flow(std::span<const double> phi) const;

  [[nodiscard]] int size() const { return n_; }
  /// Rounds one Theorem 1.1 solve would charge at this topology/eps:
  /// calibrate_rounds on this solver's edges and solver options.
  [[nodiscard]] std::int64_t calibrate(double eps) const;
  /// Factorization stats of whichever factor this mode built (the direct
  /// factor, or the sparsified solver's preconditioner factor).
  [[nodiscard]] const linalg::FactorStats& factor_stats() const {
    return opt_.mode == ElectricalMode::kDirect ? factor_.stats()
                                                : solver_->factor_stats();
  }

 private:
  int n_;
  std::vector<ElectricalEdge> edges_;
  ElectricalOptions opt_;
  linalg::CsrMatrix laplacian_;
  linalg::BackendLaplacianFactor factor_;   // Direct mode
  std::unique_ptr<solver::LaplacianSolver> solver_;  // Sparsified mode
  graph::Graph conductance_graph_;
};

/// Rounds one Theorem 1.1 solve charges on the conductance graph of `edges`
/// at `eps` (the count depends on topology and eps only, not on resistance
/// values).  Builds exactly one LaplacianSolver, on a fresh Network, and
/// solves one unit demand pair with it.
[[nodiscard]] std::int64_t calibrate_rounds(int n, std::span<const ElectricalEdge> edges,
                                            double eps,
                                            const solver::LaplacianSolverOptions& opt);

}  // namespace lapclique::flow
