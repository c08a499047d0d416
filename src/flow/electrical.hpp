// Electrical flows: the inner problem of both interior point methods.
// Given per-edge resistances r_e and a demand vector chi, solve the
// Laplacian system L(G) phi = chi where L uses conductances 1/r_e, then read
// off f_e = (phi_v - phi_u) / r_e for e = (u, v) (Algorithm 3, line 2-3).
//
// Two solver modes:
//  * Sparsified — the full Theorem 1.1 pipeline (deterministic sparsifier +
//    preconditioned Chebyshev); each solve charges the rounds it measures.
//  * Direct — exact internal LDL^T solve.  The IPMs use this for the bulk of
//    their iterations for wall-clock reasons and charge every solve the
//    Theorem 1.1 round cost of one calibration solve (see DESIGN.md §3).
//    That calibration is measured once, on the run's initial resistances;
//    the sparsifier's weight classes, level count and kappa depend on the
//    resistance values, so a later solve may really cost more or less.
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
  /// Numerics backend of both modes — one knob, so a Direct-mode factor and
  /// a Sparsified-mode preconditioner can never disagree within one IPM run.
  linalg::Backend backend = linalg::Backend::kAuto;
};

class ElectricalSolver {
 public:
  /// Builds the conductance Laplacian for the given resistances.
  ElectricalSolver(int n, std::vector<ElectricalEdge> edges,
                   const ElectricalOptions& opt = {});

  /// phi with L phi = chi (chi must sum to ~0).  With a `net`, the solve is
  /// traced (span and counter "electrical_solve") and charged on it: Direct
  /// mode charges `direct_rounds` clique-wide broadcast rounds (the IPMs pass
  /// their calibrated count), Sparsified mode the Theorem 1.1 rounds its
  /// solve measures.  Without a `net` nothing is traced or charged.
  [[nodiscard]] linalg::Vec potentials(std::span<const double> chi,
                                       clique::Network* net = nullptr,
                                       std::int64_t direct_rounds = 0) const;

  /// Induced flow: f_e = (phi_v - phi_u) / r_e.
  [[nodiscard]] std::vector<double> induced_flow(std::span<const double> phi) const;

  [[nodiscard]] int size() const { return n_; }
  /// Rounds one Theorem 1.1 solve charges at these resistances and eps:
  /// calibrate_rounds on this solver's edges and backend.
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
/// at `eps`.  The count depends on the resistance values as well as the
/// topology (they set the sparsifier's weight classes).  Builds exactly one
/// LaplacianSolver, on a fresh Network, and solves one unit demand pair.
[[nodiscard]] std::int64_t calibrate_rounds(int n, std::span<const ElectricalEdge> edges,
                                            double eps, linalg::Backend backend);

/// The IPMs' calibration step: switch `net` to `phase`, measure one
/// Theorem 1.1 solve on `edges` (calibrate_rounds), and charge that solve
/// as clique-wide broadcast rounds.  Returns the per-solve count.
std::int64_t charge_calibration(clique::Network& net, const char* phase, int n,
                                std::span<const ElectricalEdge> edges, double eps,
                                linalg::Backend backend);

}  // namespace lapclique::flow
