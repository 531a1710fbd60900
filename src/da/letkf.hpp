// LETKF — Local Ensemble Transform Kalman Filter (Hunt et al. 2007), the
// paper's SOTA baseline (§IV-A-a).
//
// Deterministic square-root EnKF whose update is applied independently in
// local regions around each grid point — the embarrassingly parallel
// structure that makes it the operational choice (e.g. KENDA). Per grid
// point, in ensemble space (m = ensemble size, p = local observations):
//
//   C     = Yb^T Rloc^{-1}                      (m x p)
//   Pa~   = [ (m-1) I + C Yb ]^{-1}             (m x m symmetric eigensolve)
//   wbar  = Pa~ C (y - ybar)
//   W     = [ (m-1) Pa~ ]^{1/2}
//   xa_i  = xbar + Xb (wbar + W e_i)
//
// When p < m, m - p eigenvalues of (m-1) I + C Yb are exactly m - 1, and the
// same wbar and W follow from the p x p observation-space dual (Hunt,
// Kostelich & Szunyogh 2007), with a = m - 1:
//
//   S     = Rloc^{-1/2} Yb                      (p x m)
//   S S^T = U diag(lambda) U^T                  (p x p symmetric eigensolve)
//   G     = S^T U                               (m x p)
//   wbar  = G diag(1/(a + lambda)) U^T Rloc^{-1/2} (y - ybar)
//   W     = I + G diag(gamma) G^T,  gamma_j = -1 / (sqrt(a + lambda_j)
//                                     (sqrt(a + lambda_j) + sqrt(a)))
//
// Nothing divides by lambda, so a QC-masked observation (a zero row of S, a
// lambda = 0 pair) stays finite. Columns with p < m take the rank-p path;
// columns with p >= m (dense networks) take the m x m one.
//
// Regularization follows the paper's SQG setup: Gaspari–Cohn R-localization
// with a cut-off radius (obs errors inflated by 1/rho), the horizontal and
// vertical extents coupled through the Rossby radius of deformation
// (cross-level obs live at effective distance sqrt(d^2 + (dlev * L_R)^2)),
// and relaxation-to-prior-spread (RTPS) inflation (Whitaker & Hamill 2012).
//
// Coarse-grid weights (Yang, Kalnay, Hunt & Bowler 2009): the local
// transform is solved only at the nodes of a coarse grid, the columns
// (lev, i, j) with i and j multiples of the stride s, and every other column
// gets the bilinear blend of the weight matrices (wbar folded in) of the
// nodes around it, periodic in x and y. s is derived, never configured: the
// largest common divisor of nx and ny with s * max(dx, dy) <= cutoff_m / 6
// (letkf_coarse_stride). At s = 1 every column is a node and the analysis is
// the full-resolution one.
//
// Execution: a cached per-network plan resolves the nodes' local
// observations. The fan-out runs over coarse-row intervals, level by level:
// a chunk solves the node row below its first interval, then for each
// interval the node row above it, and fills the s fine rows in between from
// a two-row window of node weights. A node row's observed nodes are sorted
// by local observation count and solved simd::kLaneBatch at a time, one node
// per SIMD lane, through the lane-batched Gram / tensor::jacobi_eigh_batch /
// weights / combine kernels. A batch shares one p, so it takes one path;
// both paths produce the same weight matrix for the shared combine. Partial
// batches are padded with copies of their last column. A column without
// local observations keeps the forecast; a node without them contributes the
// identity transform to its neighbours.
#pragma once

#include <memory>

#include "da/filter.hpp"

namespace turbda::da {

struct LetkfConfig {
  // Grid geometry of the state: nx * ny per level, n_levels levels, doubly
  // periodic square domain of physical size domain_m.
  std::size_t nx = 64;
  std::size_t ny = 64;
  std::size_t n_levels = 2;
  double domain_m = 20.0e6;

  double cutoff_m = 2.0e6;        ///< GC zero crossing (paper: 2000 km)
  double rtps = 0.3;              ///< RTPS factor (paper: 0.3)
  double rossby_radius_m = 1.0e6; ///< N H / f; couples the two levels
  double min_weight = 1e-3;       ///< drop obs with localization below this

  /// Worker threads for the per-column local analyses (0 = all hardware
  /// threads via the process-wide pool, 1 = serial). Column analyses are
  /// independent, so the result is bitwise identical for any value.
  std::size_t n_threads = 0;

  /// Accumulate per-phase times into timings() (bench support; off by
  /// default — the clock calls are pure overhead in production runs).
  bool collect_timings = false;

  /// Sweep budget for the per-node symmetric eigensolves.
  int eigh_max_sweeps = 50;

  /// When a local eigensolve exhausts its sweep budget: true keeps the
  /// forecast for that node and every column blended from it (counted in
  /// AnalysisStats) and the analysis continues; false rethrows the solver
  /// error on the calling thread — the whole analysis fails and the ensemble
  /// is left untouched.
  bool eigh_fallback = true;
};

/// Cumulative per-phase breakdown of analyze() (see
/// LetkfConfig::collect_timings). Milliseconds, summed over calls.
///
/// Two units: plan_ms and total_ms are wall time on the calling thread. The
/// column-solve phases (select_ms .. combine_ms) are worker time, summed over
/// every pool worker that ran a chunk, so with more than one thread their
/// sum can exceed total_ms. A node row on a chunk boundary is solved by both
/// chunks; the phase times include that repeat, the counters below do not.
struct LetkfTimings {
  double plan_ms = 0.0;     ///< local-obs plan (re)builds (wall)
  double select_ms = 0.0;   ///< per-node local obs selection (worker-summed)
  double gather_ms = 0.0;   ///< local Yb / scaled-Yb (C^T or S) gathers (worker-summed)
  double gram_ms = 0.0;     ///< A = (m-1)I + C Yb or S S^T builds (worker-summed)
  double eigh_ms = 0.0;     ///< symmetric eigensolves, m x m or p x p (worker-summed)
  double weights_ms = 0.0;  ///< wbar / weight-matrix algebra (worker-summed)
  /// Posterior combine into state columns, including the blend of the
  /// between-node columns' weights (worker-summed).
  double combine_ms = 0.0;
  double total_ms = 0.0;    ///< whole analyze() calls incl. transposes, RTPS (wall)
  std::size_t analyses = 0;
  std::size_t columns = 0;  ///< every state column, nodes or not
  // The counters below count solved columns, i.e. coarse-grid nodes (every
  // column at stride 1; columns / s^2 at stride s).
  std::size_t groups = 0;   ///< nodes solved through the eigensolve (>= 1 local obs)
  /// Lane-occupancy split of the nodes: nodes in full lane batches vs nodes
  /// in padded partial batches plus nodes without local observations.
  std::size_t batched_columns = 0;
  std::size_t scalar_columns = 0;
  /// Nodes solved through the rank-p (p x p) path: fewer local observations
  /// than members. The rest of `groups` took the m x m path.
  std::size_t rank_p_columns = 0;
};

/// Coarse-grid stride of the local transforms for this configuration: the
/// largest common divisor s of nx and ny with s * max(dx, dy) <= cutoff_m / 6,
/// where dx = domain_m / nx and dy = domain_m / ny. 1 when the cutoff spans
/// fewer than 12 grid spacings; 2 at n = 128 with the paper's 2000 km cutoff.
[[nodiscard]] std::size_t letkf_coarse_stride(const LetkfConfig& cfg);

class LETKF final : public Filter {
 public:
  explicit LETKF(LetkfConfig cfg);
  ~LETKF() override;

  /// Builds (or refreshes) the cached local-observation plan for this
  /// network, so the first analyze() of a streaming run pays no plan cost.
  /// analyze() validates the plan against its own (h, r) arguments and
  /// rebuilds on mismatch, so calling prepare() is never required for
  /// correctness and never changes results.
  void prepare(const ObservationOperator& h, const DiagonalR& r) override;

  /// Recoverable entry point. QC options are applied at gather time — the
  /// localization weight of a masked observation becomes 0 and every weight
  /// is divided by r_scale — so the cached network plan stays valid. A local
  /// eigensolve failure degrades per the eigh_fallback policy: with fallback
  /// on, the failed node and every column whose blend would read its weights
  /// keep the forecast (stats: solver_failures counts the failed solves,
  /// fallback_columns those columns); with fallback off the Status is
  /// kNonConvergent and the ensemble is untouched (the analysis buffer is
  /// only written back after every column is done).
  Status try_analyze(Ensemble& ensemble, std::span<const double> y,
                     const ObservationOperator& h, const DiagonalR& r,
                     const AnalysisOptions& opts = {}, AnalysisStats* stats = nullptr) override;

  [[nodiscard]] std::string name() const override { return "LETKF"; }

  [[nodiscard]] const LetkfConfig& config() const { return cfg_; }

  /// Cumulative phase timings (populated when cfg.collect_timings).
  [[nodiscard]] const LetkfTimings& timings() const { return timings_; }
  void reset_timings() { timings_ = LetkfTimings{}; }

  /// True when a cached plan for some network is currently held (tests).
  [[nodiscard]] bool has_plan() const { return plan_ != nullptr; }

 private:
  struct Plan;

  Status analyze_impl(Ensemble& ensemble, std::span<const double> y,
                      const ObservationOperator& h, const DiagonalR& r,
                      const AnalysisOptions& opts, AnalysisStats* stats);

  /// Returns the cached plan if it matches (h, r), else builds a fresh one.
  const Plan& plan_for(const ObservationOperator& h, const DiagonalR& r);

  LetkfConfig cfg_;
  std::unique_ptr<Plan> plan_;
  LetkfTimings timings_;
};

}  // namespace turbda::da
