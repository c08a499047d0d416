#include "linalg/backend.hpp"

#include <cstdlib>
#include <numeric>
#include <stdexcept>

namespace lapclique::linalg {

namespace {

/// kAuto thresholds.  Pure constants: the resolution must be a deterministic
/// function of (n, nnz) so reruns, threads, and routing modes all see the
/// same factorization.  Below kSparseMinN the dense factor wins outright
/// (and the golden instances at n <= 256 stay on the historical dense bits);
/// above it, sparse takes over unless the matrix is dense enough
/// (nnz > n^2/kSparseDensityDivisor) that fill-in would eat the win.
constexpr int kSparseMinN = 512;
constexpr std::int64_t kSparseDensityDivisor = 16;

}  // namespace

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kAuto:
      return "auto";
    case Backend::kDense:
      return "dense";
    case Backend::kSparse:
      return "sparse";
  }
  return "auto";
}

std::optional<Backend> backend_from_string(std::string_view s) {
  if (s == "auto") return Backend::kAuto;
  if (s == "dense") return Backend::kDense;
  if (s == "sparse") return Backend::kSparse;
  return std::nullopt;
}

Backend default_backend() {
  static const Backend env_default = [] {
    const char* e = std::getenv("LAPCLIQUE_NUMERICS");
    if (e == nullptr) return Backend::kAuto;
    return backend_from_string(e).value_or(Backend::kAuto);
  }();
  return env_default;
}

Backend resolve_backend(Backend requested, int n, std::int64_t nnz) {
  if (requested != Backend::kAuto) return requested;
  if (n < kSparseMinN) return Backend::kDense;
  const std::int64_t cells = static_cast<std::int64_t>(n) * n;
  return nnz * kSparseDensityDivisor <= cells ? Backend::kSparse : Backend::kDense;
}

BackendLaplacianFactor BackendLaplacianFactor::factor(const CsrMatrix& laplacian,
                                                      Backend requested) {
  BackendLaplacianFactor f;
  const int n = laplacian.size();
  f.stats_.requested = requested;
  f.stats_.chosen = resolve_backend(requested, n, laplacian.nnz());
  f.stats_.n = n;
  f.stats_.nnz = laplacian.nnz();

  // Components via DFS over the sparsity pattern; each component's first
  // vertex in id order is its grounded vertex.
  const auto rowptr = laplacian.row_ptr();
  const auto colidx = laplacian.col_idx();
  const auto avals = laplacian.values();
  f.comp_.assign(static_cast<std::size_t>(n), -1);
  std::vector<int> stack;
  for (int s = 0; s < n; ++s) {
    if (f.comp_[static_cast<std::size_t>(s)] != -1) continue;
    const int c = static_cast<int>(f.grounded_.size());
    f.grounded_.push_back(s);
    f.comp_size_.push_back(0);
    f.comp_[static_cast<std::size_t>(s)] = c;
    stack.push_back(s);
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      ++f.comp_size_[static_cast<std::size_t>(c)];
      for (int k = rowptr[static_cast<std::size_t>(v)];
           k < rowptr[static_cast<std::size_t>(v) + 1]; ++k) {
        const int u = colidx[static_cast<std::size_t>(k)];
        if (f.comp_[static_cast<std::size_t>(u)] == -1) {
          f.comp_[static_cast<std::size_t>(u)] = c;
          stack.push_back(u);
        }
      }
    }
  }

  // Grounded matrix: drop every entry touching a grounded vertex and pin
  // its diagonal to 1.  The result is SPD.
  std::vector<Triplet> t;
  t.reserve(avals.size() + f.grounded_.size());
  const auto is_grounded = [&f](int v) {
    return f.grounded_[static_cast<std::size_t>(f.comp_[static_cast<std::size_t>(v)])] == v;
  };
  for (int r = 0; r < n; ++r) {
    if (is_grounded(r)) {
      t.push_back({r, r, 1.0});
      continue;
    }
    for (int k = rowptr[static_cast<std::size_t>(r)];
         k < rowptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = colidx[static_cast<std::size_t>(k)];
      if (!is_grounded(c)) t.push_back({r, c, avals[static_cast<std::size_t>(k)]});
    }
  }
  const CsrMatrix grounded = CsrMatrix::from_triplets(n, t);

  if (f.stats_.chosen == Backend::kSparse) {
    // Deterministic fill-reducing ordering of the grounded pattern, then the
    // symmetrically permuted matrix is factored.
    f.perm_ = rcm_ordering(grounded);
    std::vector<int> iperm(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      iperm[static_cast<std::size_t>(f.perm_[static_cast<std::size_t>(p)])] = p;
    }
    const auto grp = grounded.row_ptr();
    const auto gci = grounded.col_idx();
    const auto gv = grounded.values();
    t.clear();
    for (int r = 0; r < n; ++r) {
      for (int k = grp[static_cast<std::size_t>(r)]; k < grp[static_cast<std::size_t>(r) + 1];
           ++k) {
        t.push_back({iperm[static_cast<std::size_t>(r)],
                     iperm[static_cast<std::size_t>(gci[static_cast<std::size_t>(k)])],
                     gv[static_cast<std::size_t>(k)]});
      }
    }
    f.sparse_ = SparseLdlt::factor(CsrMatrix::from_triplets(n, t));
    f.stats_.fill_nnz = f.sparse_.fill_nnz();
  } else {
    f.perm_.resize(static_cast<std::size_t>(n));
    std::iota(f.perm_.begin(), f.perm_.end(), 0);
    f.dense_ = DenseLdlt::factor(n, grounded.to_dense());
    // The dense factor stores the full triangle; report its logical fill.
    f.stats_.fill_nnz = static_cast<std::int64_t>(n) * (n + 1) / 2;
  }
  return f;
}

std::vector<double> BackendLaplacianFactor::component_means(
    std::span<const double> x) const {
  // Ascending vertex order: the one accumulation order every solve uses.
  std::vector<double> mean(comp_size_.size(), 0.0);
  for (std::size_t v = 0; v < x.size(); ++v) mean[static_cast<std::size_t>(comp_[v])] += x[v];
  for (std::size_t c = 0; c < mean.size(); ++c) {
    mean[c] /= static_cast<double>(comp_size_[c]);
  }
  return mean;
}

Vec BackendLaplacianFactor::project_rhs(std::span<const double> b) const {
  const int n = size();
  if (static_cast<int>(b.size()) != n) {
    throw std::invalid_argument("BackendLaplacianFactor::solve: size mismatch");
  }
  const std::vector<double> mean = component_means(b);
  Vec rhs(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    const auto v = static_cast<std::size_t>(perm_[static_cast<std::size_t>(p)]);
    const auto c = static_cast<std::size_t>(comp_[v]);
    rhs[static_cast<std::size_t>(p)] =
        grounded_[c] == static_cast<int>(v) ? 0.0 : b[v] - mean[c];
  }
  return rhs;
}

Vec BackendLaplacianFactor::normalize(std::span<const double> px) const {
  const int n = size();
  Vec x(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(p)])] =
        px[static_cast<std::size_t>(p)];
  }
  const std::vector<double> mean = component_means(x);
  for (int v = 0; v < n; ++v) {
    x[static_cast<std::size_t>(v)] -=
        mean[static_cast<std::size_t>(comp_[static_cast<std::size_t>(v)])];
  }
  return x;
}

Vec BackendLaplacianFactor::solve(std::span<const double> b) const {
  const Vec col(b.begin(), b.end());
  return std::move(solve_block({&col, 1})[0]);
}

std::vector<Vec> BackendLaplacianFactor::solve_block(std::span<const Vec> b) const {
  // Projection and normalization are per column; only the substitution
  // shares one walk over the factor, and both kernels keep each column's
  // reduction order there, so column c is bitwise a one-column solve.
  std::vector<Vec> xs;
  xs.reserve(b.size());
  for (const Vec& col : b) xs.push_back(project_rhs(col));
  if (stats_.chosen == Backend::kSparse) {
    sparse_.solve_block_inplace(xs);
  } else {
    dense_.solve_block_inplace(xs);
  }
  for (Vec& x : xs) x = normalize(x);
  return xs;
}

}  // namespace lapclique::linalg
