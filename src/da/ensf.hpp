// EnSF — the Ensemble Score Filter (paper §III-A; Bao, Zhang & Zhang).
//
// A training-free score-based diffusion filter. The forward diffusion
//   dZ_t = b(t) Z_t dt + sigma(t) dW_t,  alpha_t = 1 - t,  beta_t^2 = t
// maps the filtering density to N(0, I) over pseudo-time t in [0, 1]. The
// prior score is estimated directly from the forecast ensemble by the
// Monte-Carlo weight formula (Eqs. 13–16):
//
//   s(z, t) ~= -sum_j w_j(z) (z - alpha_t x_j) / beta_t^2,
//   w_j(z)  =  softmax_j( -|z - alpha_t x_j|^2 / (2 beta_t^2) ),
//
// and the posterior score adds the damped analytical likelihood score
// (Eq. 11/17):  s_post = s_prior + h(t) * grad_z log p(y | z),  h(t) = 1 - t.
// Analysis members are produced by integrating the reverse-time SDE (Eq. 7)
// from z ~ N(0, I) at t = 1 down to t ~= 0 with Euler–Maruyama.
//
// Samples never interact: the score of sample m reads only its own z_m and
// the shared forecast, and every sample draws its noise from its own
// counter-based substream. That is what makes the method embarrassingly
// parallel over samples (§III-A-3). The noise comes from
// rng::Rng::fill_gaussian_lanes: four Philox blocks and a polynomial
// Box–Muller per Vec step, within ~3e-15 of rng::Rng::gaussian and the same
// bits at every SIMD level. The analysis is one fan-out over
// contiguous sample blocks, each integrating its own rows of Z through every
// Euler step: its rows of the score logits z X^T (against X^T, transposed
// once per analysis) and of the weighted mean W X on the dispatched
// simd::Kernels::matmul_rows kernel, the softmax, then each sample's
// likelihood score, noise and update, in block-local scratch allocated once
// per analysis.
#pragma once

#include <cstdint>

#include "da/filter.hpp"
#include "rng/rng.hpp"

namespace turbda::da {

struct EnsfConfig {
  int euler_steps = 60;       ///< reverse-SDE discretization steps
  /// Clamp alpha(t) = 1 - (1-eps_alpha) t so the drift b(t) = -(1-eps)/alpha
  /// stays bounded at the Gaussian end (t = 1).
  static constexpr double eps_alpha = 0.05;
  int minibatch = 0;          ///< score minibatch J (Eq. 15); 0 = full ensemble
  double relax_spread = 1.0;  ///< RTPS-style relaxation of analysis spread to
                              ///< the prior spread (paper: "the variance of
                              ///< the analysis ensemble is simply relaxed to
                              ///< the prior values"); 0 disables
  double likelihood_strength = 1.0;  ///< multiplier on the likelihood score;
                                     ///< >1 sharpens the pull toward obs when
                                     ///< R is only moderately informative
  /// Per-component clamp on the likelihood contribution of one Euler step
  /// (stabilizes tiny-R configurations).
  static constexpr double max_like_step = 10.0;
  double kernel_bandwidth = 0.0;     ///< kernel smoothing of the Monte-Carlo
                                     ///< score: component bandwidth becomes
                                     ///< beta^2 + (kappa * alpha * spread)^2.
                                     ///< 0 reproduces Eq. (16) exactly; >0
                                     ///< smooths the empirical score so small
                                     ///< ensembles keep contracting when R is
                                     ///< only moderately informative (see the
                                     ///< EnSF ablation bench)
  std::uint64_t seed = 20240712;

  /// Threads for the analysis (0 = all hardware threads via the process-wide
  /// pool, 1 = serial): the samples split into at most this many contiguous
  /// blocks, and each block runs the whole reverse-time integration on one
  /// thread. Each score-product element is a sequential sum over its own
  /// sample's row and every sample draws noise from its own Philox
  /// substream, so the analysis is bitwise identical for any value.
  std::size_t n_threads = 0;

  /// The configuration used by the paper-reproduction benches: kernel
  /// smoothing + strengthened likelihood keep 20-member ensembles stable at
  /// the observation-noise floor (README "EnSF analysis" discusses the
  /// deviation from the raw Eq. 11-17 parameters).
  [[nodiscard]] static EnsfConfig stabilized() {
    EnsfConfig cfg;
    cfg.euler_steps = 100;
    cfg.kernel_bandwidth = 0.3;
    cfg.likelihood_strength = 16.0;
    cfg.relax_spread = 0.9;  // full relaxation lets spread grow unboundedly
    return cfg;
  }
};

/// Cumulative per-phase breakdown of analyze(), always collected.
/// Milliseconds, summed over calls.
///
/// Two units: total_ms is wall time on the calling thread. The phases
/// (score_ms .. update_ms) are worker time, summed over every pool worker
/// that integrated a sample block, so with more than one thread their sum
/// can exceed total_ms.
struct EnsfTimings {
  double score_ms = 0.0;       ///< minibatch gather + z X^T score logits (worker-summed)
  double softmax_ms = 0.0;     ///< softmax score weights W (worker-summed)
  double mean_ms = 0.0;        ///< weighted member mean W X (worker-summed)
  double likelihood_ms = 0.0;  ///< likelihood score J_h^T R^{-1} (y - h(z)) (worker-summed)
  double noise_ms = 0.0;       ///< Gaussian draws, initial Z included (worker-summed)
  double update_ms = 0.0;      ///< Euler–Maruyama update kernels (worker-summed)
  double total_ms = 0.0;       ///< whole analyze() calls incl. setup and RTPS (wall)
  std::size_t analyses = 0;
};

class EnSF final : public Filter {
 public:
  explicit EnSF(EnsfConfig cfg);

  /// Recoverable entry point: a masked observation contributes a zero
  /// residual to the likelihood score (exact excision) and r_scale uniformly
  /// deflates R^{-1}.
  Status try_analyze(Ensemble& ensemble, std::span<const double> y,
                     const ObservationOperator& h, const DiagonalR& r,
                     const AnalysisOptions& opts = {}, AnalysisStats* stats = nullptr) override;

  /// EnSF's only cross-cycle mutable state is the cycle counter that keys the
  /// per-cycle RNG stream — serializing it makes a resumed run draw the same
  /// noise as the uninterrupted one.
  bool save_state(std::vector<std::uint8_t>& out) const override;
  bool restore_state(std::span<const std::uint8_t> in) override;

  [[nodiscard]] std::string name() const override { return "EnSF"; }

  [[nodiscard]] const EnsfConfig& config() const { return cfg_; }

  /// Number of assimilation cycles performed (advances the RNG stream so
  /// cycles stay independent yet reproducible).
  [[nodiscard]] std::uint64_t cycles_done() const { return cycle_; }

  /// Cumulative phase timings.
  [[nodiscard]] const EnsfTimings& timings() const { return timings_; }
  void reset_timings() { timings_ = EnsfTimings{}; }

 private:
  Status analyze_impl(Ensemble& ensemble, std::span<const double> y,
                      const ObservationOperator& h, const DiagonalR& r,
                      const AnalysisOptions& opts, AnalysisStats* stats);

  EnsfConfig cfg_;
  std::uint64_t cycle_ = 0;
  EnsfTimings timings_;
};

}  // namespace turbda::da
