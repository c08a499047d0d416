// Preconditioned Chebyshev iteration (Theorem 2.2, after [Pen13; Saa03]).
//
// Given symmetric PSD A and B with A <= B <= kappa*A (Loewner order), the
// iteration realizes a linear operator Z on b with
//     (1 - eps) A^+  <=  Z  <=  (1 + eps) A^+
// in O(sqrt(kappa) log(1/eps)) iterations, each consisting of one
// matrix-vector product with A, one solve with B, and O(1) vector ops.
//
// This is the engine of Corollary 2.3: with B = alpha*L_H for an
// alpha-approximate sparsifier H, kappa = alpha^2 ... the paper sets
// A := L_G, B := alpha L_H, kappa := alpha (after rewriting
// L_G <= alpha L_H <= alpha^2 L_G); we expose kappa directly.
//
// There is one kernel, and it takes k right-hand sides: a single solve is
// the k = 1 case.  The recurrence coefficients depend only on (kappa, eps)
// and the iteration count is fixed up front, so the columns never interact —
// column c of a k-column call is bit-identical to a one-column call on b[c],
// while each iteration's matvec and preconditioner solve is one shared block
// pass.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace lapclique::linalg {

struct ChebyshevStats {
  int iterations = 0;
  double final_residual = 0;            ///< ||b - A x||_2 (diagnostic only)
  std::vector<double> residual_trace;   ///< per-iteration, when requested
};

struct ChebyshevOptions {
  double eps = 1e-8;        ///< target relative error (Theorem 2.2 sense)
  double kappa = 2.0;       ///< A <= B <= kappa A
  bool record_trace = false;
};

/// Multi-RHS operator application: one call applies B^{-1} to every column
/// (e.g. BackendLaplacianFactor::solve_block).
using BlockApplyFn = std::function<std::vector<Vec>(std::span<const Vec>)>;

/// PreconCheby(A, B, b, kappa, eps) over k right-hand sides: returns
/// x[c] ~= A^+ b[c] after chebyshev_iteration_bound(kappa, eps) iterations.
/// `solve_b` applies B^{-1}.  Each iteration runs one fused p/x update pass
/// and one fused r -= alpha A p pass (CsrMatrix::multiply_block_axpy_into).
/// Per-column ChebyshevStats land in `stats` (resized to k) when non-null.
std::vector<Vec> preconditioned_chebyshev(const CsrMatrix& a, const BlockApplyFn& solve_b,
                                          std::span<const Vec> b,
                                          const ChebyshevOptions& opt,
                                          std::vector<ChebyshevStats>* stats = nullptr);

/// Theoretical iteration count for given kappa/eps (Theorem 2.2, item 2).
int chebyshev_iteration_bound(double kappa, double eps);

}  // namespace lapclique::linalg
