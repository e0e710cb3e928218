#include "linalg/lowrank.hpp"

#include <cmath>

#include "linalg/complex_div.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::linalg {

namespace metrics = util::metrics;

namespace {

constexpr std::size_t kMaxRank = LowRankUpdateSolver::kMaxRank;

bool Finite(Complex v) {
  return std::isfinite(v.real()) && std::isfinite(v.imag());
}

/// w^T v over a sparse w (plain transpose, no conjugation: the perturbation
/// is Delta = sum u w^T, not a Hermitian form).
Complex SparseDot(const std::vector<std::pair<std::size_t, Complex>>& w,
                  const Vector& v) {
  Complex acc(0.0, 0.0);
  for (const auto& [idx, val] : w) acc += val * v[idx];
  return acc;
}

/// k-by-k partial-pivot elimination of C h = g.  The conditioning guard: a
/// pivot collapsing relative to the matrix scale (`cmax`) means A + Delta
/// is (nearly) singular along the update subspace — SMW would amplify
/// roundoff unboundedly there, so the exact path must decide.  Returns
/// false on a collapsed (or NaN) pivot or a non-finite coefficient;
/// `c` and `g` are clobbered either way.
bool SolveCapacitance(std::size_t k, Complex c[kMaxRank][kMaxRank],
                      Complex g[kMaxRank], double cmax,
                      Complex h[kMaxRank]) {
  std::size_t perm[kMaxRank];
  for (std::size_t i = 0; i < k; ++i) perm[i] = i;
  const double pivot_floor = LowRankUpdateSolver::kPivotFloor * cmax;
  for (std::size_t step = 0; step < k; ++step) {
    std::size_t best = step;
    double best_mag = std::abs(c[perm[step]][step]);
    for (std::size_t r = step + 1; r < k; ++r) {
      const double mag = std::abs(c[perm[r]][step]);
      if (mag > best_mag) {
        best = r;
        best_mag = mag;
      }
    }
    if (!(best_mag > pivot_floor)) {  // also catches NaN pivots
      return false;
    }
    std::swap(perm[step], perm[best]);
    const DivisorHalf pivot = MakeDivisorHalf(c[perm[step]][step]);
    for (std::size_t r = step + 1; r < k; ++r) {
      const Complex m = Divide(c[perm[r]][step], pivot);
      if (m == Complex(0.0, 0.0)) continue;
      for (std::size_t col = step + 1; col < k; ++col) {
        c[perm[r]][col] -= m * c[perm[step]][col];
      }
      g[perm[r]] -= m * g[perm[step]];
    }
  }
  for (std::size_t step = k; step-- > 0;) {
    Complex acc = g[perm[step]];
    for (std::size_t col = step + 1; col < k; ++col) {
      acc -= c[perm[step]][col] * h[col];
    }
    h[step] = Divide(acc, c[perm[step]][step]);
    if (!Finite(h[step])) {
      return false;
    }
  }
  return true;
}

/// Hashed faultpoint digest over the perturbation terms: an armed run fails
/// the same cells at any thread or shard count.
std::uint64_t PerturbationDigest(const LowRankPerturbation& delta) {
  std::uint64_t digest = 0;
  for (const LowRankTerm& term : delta.terms) {
    for (const auto& [idx, val] : term.u) {
      digest = util::faultpoint::DigestCombine(digest, idx);
      digest = util::faultpoint::DigestCombine(
          digest, util::faultpoint::DigestBytes(&val, sizeof(val)));
    }
    for (const auto& [idx, val] : term.w) {
      digest = util::faultpoint::DigestCombine(digest, idx);
      digest = util::faultpoint::DigestCombine(
          digest, util::faultpoint::DigestBytes(&val, sizeof(val)));
    }
  }
  return digest;
}

metrics::Counter& UpdateCounter() {
  static metrics::Counter& c = metrics::GetCounter("linalg.smw.update");
  return c;
}

metrics::Counter& FallbackCounter() {
  static metrics::Counter& c = metrics::GetCounter("linalg.smw.fallback");
  return c;
}

metrics::Counter& KxkCounter() {
  static metrics::Counter& c = metrics::GetCounter("linalg.smw.kxk_solve");
  return c;
}

}  // namespace

void LowRankUpdateSolver::Bind(SparseLu& nominal, const Vector& b) {
  if (b.size() != nominal.Size()) {
    throw util::NumericError("low-rank solver: rhs size " +
                             std::to_string(b.size()) +
                             " does not match matrix dimension " +
                             std::to_string(nominal.Size()));
  }
  lu_ = &nominal;
  // Pin the factorization onto the factor-program path before the first
  // triangular solve, so every point of a sweep — the anchor frequency
  // included, where the factor comes straight from construction rather
  // than from a Refactor — solves through one operation sequence.
  nominal.EnsureFactorProgram();
  nominal.Solve(b, x0_);
}

std::optional<Vector> LowRankUpdateSolver::Solve(
    const LowRankPerturbation& delta) {
  if (lu_ == nullptr) {
    throw util::NumericError("low-rank solver: Solve() before Bind()");
  }
  const std::size_t k = delta.Rank();
  if (k == 0) {
    UpdateCounter().Add();
    return x0_;  // Delta == 0: the perturbed system is the nominal one
  }
  if (k > kMaxRank) {
    FallbackCounter().Add();
    return std::nullopt;
  }
  // Hashed-mode faultpoint over the perturbation terms: armed runs fail
  // the same (fault, frequency) cells at any thread or shard count.
  if (util::faultpoint::AnyArmed() &&
      util::faultpoint::ShouldFail("smw.solve", PerturbationDigest(delta))) {
    throw util::McdftError(util::ErrorCategory::kInjected,
                           "faultpoint smw.solve");
  }
  const std::size_t n = lu_->Size();

  // Z = A^{-1} U, one triangular solve pair per rank-1 term.
  if (z_.size() < k) z_.resize(k);
  dense_u_.Resize(n);
  for (std::size_t j = 0; j < k; ++j) {
    dense_u_.SetZero();
    for (const auto& [idx, val] : delta.terms[j].u) {
      if (idx >= n) {
        throw util::NumericError("low-rank solver: u index out of range");
      }
      dense_u_[idx] += val;
    }
    lu_->Solve(dense_u_, z_[j]);
  }

  // Capacitance matrix C = I_k + W^T Z and projected rhs g = W^T x0.
  Complex c[kMaxRank][kMaxRank];
  Complex g[kMaxRank];
  double cmax = 1.0;  // the identity contributes unit-scale entries
  for (std::size_t i = 0; i < k; ++i) {
    for (const auto& entry : delta.terms[i].w) {
      if (entry.first >= n) {
        throw util::NumericError("low-rank solver: w index out of range");
      }
    }
    g[i] = SparseDot(delta.terms[i].w, x0_);
    for (std::size_t j = 0; j < k; ++j) {
      c[i][j] = (i == j ? Complex(1.0, 0.0) : Complex(0.0, 0.0)) +
                SparseDot(delta.terms[i].w, z_[j]);
      cmax = std::max(cmax, std::abs(c[i][j]));
    }
  }

  KxkCounter().Add();
  Complex h[kMaxRank];
  if (!SolveCapacitance(k, c, g, cmax, h)) {
    FallbackCounter().Add();
    return std::nullopt;
  }

  // x = x0 - Z h.
  Vector x = x0_;
  for (std::size_t j = 0; j < k; ++j) x.Axpy(-h[j], z_[j]);
  UpdateCounter().Add();
  return x;
}

}  // namespace mcdft::linalg
