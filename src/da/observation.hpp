// Observation models (Eq. 2 of the paper): Y_k = h_k(X_k) + E^o_k,
// E^o ~ N(0, R) with diagonal R.
//
// Filters need three things from an observation operator: the forward map
// h(x), the adjoint of its linearization (for the EnSF likelihood score
// grad_x log p(y|x) = J_h(x)^T R^{-1} (y - h(x))), and — for LETKF
// localization — where each observation lives on the model grid.
#pragma once

#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "rng/rng.hpp"

namespace turbda::da {

/// Physical location of an observation on a gridded state (used by LETKF's
/// R-localization). Index units are grid cells; `level` is the vertical level.
struct ObsLocation {
  int ix = 0;
  int iy = 0;
  int level = 0;
};

class ObservationOperator {
 public:
  virtual ~ObservationOperator() = default;

  [[nodiscard]] virtual std::size_t state_dim() const = 0;
  [[nodiscard]] virtual std::size_t obs_dim() const = 0;

  /// y = h(x).
  virtual void apply(std::span<const double> x, std::span<double> y) const = 0;

  /// out = J_h(x)^T r (adjoint of the tangent linear at x).
  virtual void adjoint(std::span<const double> x, std::span<const double> r,
                       std::span<double> out) const = 0;

  /// Grid locations per observation, when the state is gridded (needed by
  /// LETKF); std::nullopt for operators without spatial meaning.
  [[nodiscard]] virtual std::optional<std::vector<ObsLocation>> locations() const {
    return std::nullopt;
  }
};

/// h(x) = x. The paper's Fig. 4/5 setting: "the entire SQG state is directly
/// observed; the observation operator becomes the identity matrix".
class IdentityObs final : public ObservationOperator {
 public:
  /// Grid metadata (nx, ny, n_levels) enables LETKF localization; pass zeros
  /// for non-gridded states.
  explicit IdentityObs(std::size_t dim, std::size_t nx = 0, std::size_t ny = 0,
                       std::size_t n_levels = 1)
      : dim_(dim), nx_(nx), ny_(ny), nlev_(n_levels) {
    if (nx_ > 0) TURBDA_REQUIRE(nx_ * ny_ * nlev_ == dim_, "grid metadata inconsistent with dim");
  }

  [[nodiscard]] std::size_t state_dim() const override { return dim_; }
  [[nodiscard]] std::size_t obs_dim() const override { return dim_; }

  void apply(std::span<const double> x, std::span<double> y) const override {
    TURBDA_REQUIRE(x.size() == dim_ && y.size() == dim_, "IdentityObs: size mismatch");
    std::copy(x.begin(), x.end(), y.begin());
  }

  void adjoint(std::span<const double>, std::span<const double> r,
               std::span<double> out) const override {
    TURBDA_REQUIRE(r.size() == dim_ && out.size() == dim_, "IdentityObs: size mismatch");
    std::copy(r.begin(), r.end(), out.begin());
  }

  [[nodiscard]] std::optional<std::vector<ObsLocation>> locations() const override {
    if (nx_ == 0) return std::nullopt;
    std::vector<ObsLocation> locs(dim_);
    for (std::size_t l = 0; l < nlev_; ++l)
      for (std::size_t j = 0; j < ny_; ++j)
        for (std::size_t i = 0; i < nx_; ++i)
          locs[(l * ny_ + j) * nx_ + i] =
              ObsLocation{static_cast<int>(i), static_cast<int>(j), static_cast<int>(l)};
    return locs;
  }

 private:
  std::size_t dim_, nx_, ny_, nlev_;
};

/// Observes a subset of state components: y_i = x[idx_i].
class SubsampleObs final : public ObservationOperator {
 public:
  SubsampleObs(std::size_t state_dim, std::vector<std::size_t> indices,
               std::vector<ObsLocation> locs = {})
      : dim_(state_dim), idx_(std::move(indices)), locs_(std::move(locs)) {
    for (auto i : idx_) TURBDA_REQUIRE(i < dim_, "SubsampleObs: index out of range");
    if (!locs_.empty())
      TURBDA_REQUIRE(locs_.size() == idx_.size(), "SubsampleObs: locations size mismatch");
  }

  /// Every `stride`-th variable (no spatial metadata — LETKF cannot
  /// localize these; prefer strided_grid for gridded states).
  static SubsampleObs strided(std::size_t state_dim, std::size_t stride) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < state_dim; i += stride) idx.push_back(i);
    return SubsampleObs(state_dim, std::move(idx));
  }

  /// Sparse observing network on a gridded state: every `stride`-th grid
  /// point in both horizontal directions, on every level, with grid
  /// locations attached so LETKF's R-localization sees where each
  /// observation lives. The state layout matches IdentityObs:
  /// index = (level * ny + iy) * nx + ix.
  static SubsampleObs strided_grid(std::size_t nx, std::size_t ny, std::size_t n_levels,
                                   std::size_t stride) {
    TURBDA_REQUIRE(stride >= 1 && nx >= 1 && ny >= 1 && n_levels >= 1,
                   "strided_grid: bad geometry");
    std::vector<std::size_t> idx;
    std::vector<ObsLocation> locs;
    for (std::size_t l = 0; l < n_levels; ++l)
      for (std::size_t j = 0; j < ny; j += stride)
        for (std::size_t i = 0; i < nx; i += stride) {
          idx.push_back((l * ny + j) * nx + i);
          locs.push_back(ObsLocation{static_cast<int>(i), static_cast<int>(j),
                                     static_cast<int>(l)});
        }
    return SubsampleObs(nx * ny * n_levels, std::move(idx), std::move(locs));
  }

  [[nodiscard]] std::size_t state_dim() const override { return dim_; }
  [[nodiscard]] std::size_t obs_dim() const override { return idx_.size(); }

  void apply(std::span<const double> x, std::span<double> y) const override {
    TURBDA_REQUIRE(x.size() == dim_ && y.size() == idx_.size(), "SubsampleObs: size mismatch");
    for (std::size_t i = 0; i < idx_.size(); ++i) y[i] = x[idx_[i]];
  }

  void adjoint(std::span<const double>, std::span<const double> r,
               std::span<double> out) const override {
    TURBDA_REQUIRE(r.size() == idx_.size() && out.size() == dim_, "SubsampleObs: size mismatch");
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t i = 0; i < idx_.size(); ++i) out[idx_[i]] += r[i];
  }

  [[nodiscard]] std::optional<std::vector<ObsLocation>> locations() const override {
    if (locs_.empty()) return std::nullopt;
    return locs_;
  }

  [[nodiscard]] const std::vector<std::size_t>& indices() const { return idx_; }

 private:
  std::size_t dim_;
  std::vector<std::size_t> idx_;
  std::vector<ObsLocation> locs_;
};

/// Strongly nonlinear elementwise operator y_i = arctan(x_i) — the stress
/// test used by the EnSF reference papers ("highly nonlinear observations").
class ArctanObs final : public ObservationOperator {
 public:
  explicit ArctanObs(std::size_t dim) : dim_(dim) {}

  [[nodiscard]] std::size_t state_dim() const override { return dim_; }
  [[nodiscard]] std::size_t obs_dim() const override { return dim_; }

  void apply(std::span<const double> x, std::span<double> y) const override {
    TURBDA_REQUIRE(x.size() == dim_ && y.size() == dim_, "ArctanObs: size mismatch");
    for (std::size_t i = 0; i < dim_; ++i) y[i] = std::atan(x[i]);
  }

  void adjoint(std::span<const double> x, std::span<const double> r,
               std::span<double> out) const override {
    TURBDA_REQUIRE(x.size() == dim_ && r.size() == dim_ && out.size() == dim_,
                   "ArctanObs: size mismatch");
    for (std::size_t i = 0; i < dim_; ++i) out[i] = r[i] / (1.0 + x[i] * x[i]);
  }

 private:
  std::size_t dim_;
};

/// Diagonal Gaussian observation-error model N(0, diag(var)).
class DiagonalR {
 public:
  explicit DiagonalR(std::size_t dim, double variance = 1.0)
      : var_(dim, variance) {
    TURBDA_REQUIRE(variance > 0.0, "observation variance must be positive");
  }

  explicit DiagonalR(std::vector<double> variances) : var_(std::move(variances)) {
    for (double v : var_) TURBDA_REQUIRE(v > 0.0, "observation variance must be positive");
  }

  [[nodiscard]] std::size_t dim() const { return var_.size(); }
  [[nodiscard]] double variance(std::size_t i) const { return var_[i]; }

  /// y += R^{1/2} xi with xi ~ N(0, I).
  void perturb(std::span<double> y, rng::Rng& rng) const {
    TURBDA_REQUIRE(y.size() == var_.size(), "DiagonalR: size mismatch");
    for (std::size_t i = 0; i < y.size(); ++i) y[i] += rng.gaussian(0.0, std::sqrt(var_[i]));
  }

 private:
  std::vector<double> var_;
};

}  // namespace turbda::da
