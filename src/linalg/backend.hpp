// The library's one Laplacian factor (BackendLaplacianFactor) and the
// linalg::Backend switch (`auto | dense | sparse`) choosing its LDL^T kernel,
// selected per run via Runtime::numerics (core/runtime.hpp) and reported back
// through FactorStats → LaplacianSolveStats / RunInfo so traces, benches, and
// golden tests can pin which kernel actually ran.
//
// Resolution contract:
//   * kDense / kSparse are explicit and always honored.
//   * kAuto resolves from (n, nnz) alone — a pure function, so the choice is
//     deterministic and, crucially, environment-free at this layer.  The
//     LAPCLIQUE_NUMERICS environment variable enters only through
//     default_backend(), which seeds Runtime::numerics — mirroring how
//     LAPCLIQUE_ROUTING seeds Runtime::routing_mode while direct Network
//     construction stays env-independent.  The serve daemon therefore never
//     inherits a backend from its environment (docs/SERVING.md contract);
//     it takes one from --numerics or per-request fields.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/sparse_cholesky.hpp"

namespace lapclique::linalg {

enum class Backend {
  kAuto = 0,   ///< resolve from instance size/sparsity (resolve_backend)
  kDense = 1,  ///< dense LDL^T (linalg/cholesky)
  kSparse = 2  ///< RCM-ordered sparse LDL^T (linalg/sparse_cholesky)
};

[[nodiscard]] const char* to_string(Backend b);

/// Parses "auto" | "dense" | "sparse"; std::nullopt on anything else.
[[nodiscard]] std::optional<Backend> backend_from_string(std::string_view s);

/// Process default: the LAPCLIQUE_NUMERICS environment variable (read once),
/// else kAuto.  Seeds Runtime::numerics only — factorization call sites must
/// not consult this directly (see the header comment).
[[nodiscard]] Backend default_backend();

/// Resolves kAuto for an n-vertex Laplacian with nnz stored entries: sparse
/// once the instance is big enough that the O(n^3) dense factor loses and
/// sparse enough that fill-in stays bounded.  Explicit requests pass through.
[[nodiscard]] Backend resolve_backend(Backend requested, int n, std::int64_t nnz);

/// What a factorization did, surfaced through solver stats and RunInfo.
struct FactorStats {
  Backend requested = Backend::kAuto;  ///< what the caller asked for
  Backend chosen = Backend::kDense;    ///< what actually ran
  int n = 0;                           ///< matrix dimension
  std::int64_t nnz = 0;                ///< stored entries of the Laplacian
  std::int64_t fill_nnz = 0;           ///< nonzeros in the factor (diag incl.)
};

/// The Laplacian pseudoinverse factor: x = L^+ b for a connected or
/// disconnected Laplacian.  Per component one vertex is grounded (its row
/// and column pinned to the identity), the grounded SPD matrix is LDL^T
/// factored by the resolved kernel, and every solve projects b onto range(L)
/// per component before the substitution and shifts x to mean zero per
/// component after it.  Labelling, grounding, projection and normalization
/// are kernel-independent, so swapping kernels changes substitution bits
/// only — round counts stay pinned by the golden tests under either choice.
class BackendLaplacianFactor {
 public:
  BackendLaplacianFactor() = default;

  static BackendLaplacianFactor factor(const CsrMatrix& laplacian,
                                       Backend requested = Backend::kAuto);

  [[nodiscard]] int size() const { return stats_.n; }
  [[nodiscard]] const FactorStats& stats() const { return stats_; }
  [[nodiscard]] Backend chosen() const { return stats_.chosen; }
  [[nodiscard]] int num_components() const {
    return static_cast<int>(comp_size_.size());
  }

  /// x = L^+ b.
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// Multi-RHS pseudoinverse action; column c bit-identical to solve(b[c]).
  [[nodiscard]] std::vector<Vec> solve_block(std::span<const Vec> b) const;

 private:
  /// Per-component mean of a vertex-ordered vector.
  [[nodiscard]] std::vector<double> component_means(std::span<const double> x) const;
  /// b minus its per-component mean, grounded entries zeroed, in factor order.
  [[nodiscard]] Vec project_rhs(std::span<const double> b) const;
  /// Back to vertex order, then the per-component mean subtracted.
  [[nodiscard]] Vec normalize(std::span<const double> px) const;

  FactorStats stats_;
  std::vector<int> comp_;       ///< component id per vertex
  std::vector<int> grounded_;   ///< grounded vertex per component (its first)
  std::vector<int> comp_size_;  ///< vertices per component
  std::vector<int> perm_;       ///< factor order: perm_[pos] = vertex (RCM for
                                ///< the sparse kernel, identity for dense)
  // Exactly one kernel is populated, fixed by stats_.chosen at factor time.
  DenseLdlt dense_;
  SparseLdlt sparse_;
};

}  // namespace lapclique::linalg
