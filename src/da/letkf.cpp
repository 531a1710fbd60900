#include "da/letkf.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "da/localization.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dense_kernels.hpp"
#include "telemetry/trace.hpp"
#include "tensor/linalg.hpp"

namespace turbda::da {

using tensor::Tensor;

LETKF::LETKF(LetkfConfig cfg) : cfg_(cfg) {
  TURBDA_REQUIRE(cfg_.nx >= 2 && cfg_.ny >= 2 && cfg_.n_levels >= 1, "bad LETKF grid");
  TURBDA_REQUIRE(cfg_.cutoff_m > 0.0 && cfg_.domain_m > 0.0, "bad LETKF scales");
  TURBDA_REQUIRE(cfg_.rtps >= 0.0 && cfg_.rtps < 1.0, "RTPS factor must be in [0,1)");
  TURBDA_REQUIRE(cfg_.eigh_max_sweeps >= 1, "eigh_max_sweeps must be >= 1");
}

LETKF::~LETKF() = default;

namespace {

/// Precomputed horizontal neighborhood: cell offsets within the GC support
/// plus their horizontal distances.
struct Neighborhood {
  std::vector<int> di, dj;
  std::vector<double> dist;
};

Neighborhood build_neighborhood(const LetkfConfig& cfg) {
  Neighborhood nb;
  const double dx = cfg.domain_m / static_cast<double>(cfg.nx);
  const double dy = cfg.domain_m / static_cast<double>(cfg.ny);
  const auto nxi = static_cast<int>(cfg.nx);
  const auto nyi = static_cast<int>(cfg.ny);
  // Offsets cover each periodic cell at most once: [-(n-1)/2, n/2]. The
  // radius comparison happens in double to avoid overflow for huge cutoffs.
  for (int j = -(nyi - 1) / 2; j <= nyi / 2; ++j) {
    for (int i = -(nxi - 1) / 2; i <= nxi / 2; ++i) {
      // Periodic minimum-image distance.
      const double ddx = std::min(std::abs(i) * dx, cfg.domain_m - std::abs(i) * dx);
      const double ddy = std::min(std::abs(j) * dy, cfg.domain_m - std::abs(j) * dy);
      const double d = std::hypot(ddx, ddy);
      if (d <= cfg.cutoff_m) {
        nb.di.push_back(i);
        nb.dj.push_back(j);
        nb.dist.push_back(d);
      }
    }
  }
  return nb;
}

}  // namespace

/// Budget for materializing the per-column (obs, weight) lists of a plan.
/// The benchmark's sparse networks fit; the dense identity network at
/// n = 128 does not and walks the weight template per column instead.
constexpr std::uint64_t kPlanBudgetBytes = std::uint64_t{64} << 20;

/// Cached local-observation plan for one observation network on one grid.
///
/// Everything the per-column observation selection used to recompute every
/// cycle is hoisted here and keyed on the network (locations + R variances):
/// the Gaspari–Cohn weights collapse to a translation-invariant template
/// per (analysis level, cell offset, obs level) — all hypot/GC evaluations
/// happen once per network, not once per column per cycle — and every
/// column's local observation count is recorded for the lane-batch
/// scheduler. When the resolved per-column (obs, w) lists fit
/// kPlanBudgetBytes they are materialized outright, removing even the
/// template walk from the analysis hot path.
struct LETKF::Plan {
  /// One non-negligible template entry: cell offset (di, dj), observation
  /// level (as a flat cell-index base), localization weight.
  struct TemplEntry {
    std::int32_t di, dj;
    std::size_t olev_base;
    double rho;
  };

  std::size_t nx = 0, ny = 0, nlev = 0;

  // Network signature for invalidation.
  std::vector<ObsLocation> locs;
  std::vector<double> rvar;

  std::vector<std::vector<TemplEntry>> tmpl;  ///< per analysis level
  std::vector<std::int32_t> wrapx, wrapy;     ///< periodic index wrap, offset by nx/ny
  std::vector<std::int32_t> cell_obs;         ///< cell -> obs index, -1 unobserved
  std::vector<double> inv_rvar;               ///< 1 / R diagonal

  // Materialized per-column selections (sel_* stay empty otherwise).
  bool materialized = false;
  std::vector<std::uint64_t> col_off;  ///< d + 1 prefix offsets
  std::vector<std::int32_t> sel_idx;
  std::vector<double> sel_w;

  /// Per-column local observation count: lets the lane-batch scheduler
  /// bucket columns by problem shape without walking the template.
  std::vector<std::uint32_t> col_pl;

  /// Visits this column's local observations in the fixed deterministic
  /// order (neighborhood entry outer, obs level inner): f(obs_index,
  /// localization_weight / r_variance).
  template <class F>
  void for_each(std::size_t g, F&& f) const {
    const std::size_t area = nx * ny;
    const std::size_t lev = g / area;
    const std::size_t rem = g % area;
    const auto gi = static_cast<std::int32_t>(rem % nx);
    const auto gj = static_cast<std::int32_t>(rem / nx);
    const auto nxi = static_cast<std::int32_t>(nx);
    const auto nyi = static_cast<std::int32_t>(ny);
    for (const TemplEntry& e : tmpl[lev]) {
      const std::int32_t oi = wrapx[static_cast<std::size_t>(gi + e.di + nxi)];
      const std::int32_t oj = wrapy[static_cast<std::size_t>(gj + e.dj + nyi)];
      const std::size_t cell =
          e.olev_base + static_cast<std::size_t>(oj) * nx + static_cast<std::size_t>(oi);
      const std::int32_t oidx = cell_obs[cell];
      if (oidx < 0) continue;
      f(oidx, e.rho * inv_rvar[static_cast<std::size_t>(oidx)]);
    }
  }

  [[nodiscard]] bool matches(const std::vector<ObsLocation>& l,
                             const std::vector<double>& rv) const {
    if (l.size() != locs.size() || rv.size() != rvar.size()) return false;
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (l[i].ix != locs[i].ix || l[i].iy != locs[i].iy || l[i].level != locs[i].level)
        return false;
    }
    return rv == rvar;
  }

  static std::unique_ptr<Plan> build(const LetkfConfig& cfg, std::vector<ObsLocation> locs_in,
                                     std::vector<double> rvar_in);
};

std::unique_ptr<LETKF::Plan> LETKF::Plan::build(const LetkfConfig& cfg,
                                                std::vector<ObsLocation> locs_in,
                                                std::vector<double> rvar_in) {
  auto plan = std::make_unique<Plan>();
  Plan& pl = *plan;
  pl.nx = cfg.nx;
  pl.ny = cfg.ny;
  pl.nlev = cfg.n_levels;
  pl.locs = std::move(locs_in);
  pl.rvar = std::move(rvar_in);
  const std::size_t area = cfg.nx * cfg.ny;
  const std::size_t d = area * cfg.n_levels;
  const std::size_t p = pl.locs.size();

  // Cell -> observation map (validates locations against the grid).
  pl.cell_obs.assign(d, -1);
  for (std::size_t o = 0; o < p; ++o) {
    const auto& L = pl.locs[o];
    TURBDA_REQUIRE(L.ix >= 0 && L.ix < static_cast<int>(cfg.nx) && L.iy >= 0 &&
                       L.iy < static_cast<int>(cfg.ny) && L.level >= 0 &&
                       L.level < static_cast<int>(cfg.n_levels),
                   "LETKF: observation location outside grid");
    const std::size_t cell =
        (static_cast<std::size_t>(L.level) * cfg.ny + static_cast<std::size_t>(L.iy)) * cfg.nx +
        static_cast<std::size_t>(L.ix);
    pl.cell_obs[cell] = static_cast<std::int32_t>(o);
  }
  pl.inv_rvar.resize(p);
  for (std::size_t o = 0; o < p; ++o) pl.inv_rvar[o] = 1.0 / pl.rvar[o];

  // Periodic wrap lookup tables: index (g + off + n) for off in the
  // neighborhood range always lands in [1, 3n).
  pl.wrapx.resize(3 * cfg.nx);
  for (std::size_t i = 0; i < pl.wrapx.size(); ++i)
    pl.wrapx[i] = static_cast<std::int32_t>(i % cfg.nx);
  pl.wrapy.resize(3 * cfg.ny);
  for (std::size_t i = 0; i < pl.wrapy.size(); ++i)
    pl.wrapy[i] = static_cast<std::int32_t>(i % cfg.ny);

  // Translation-invariant weight template: every hypot/Gaspari–Cohn
  // evaluation the per-column walk used to perform happens exactly once
  // here; entries below min_weight are dropped at the source.
  const Neighborhood nb = build_neighborhood(cfg);
  const double gc_halfwidth = 0.5 * cfg.cutoff_m;
  pl.tmpl.resize(cfg.n_levels);
  for (std::size_t lev = 0; lev < cfg.n_levels; ++lev) {
    auto& entries = pl.tmpl[lev];
    for (std::size_t t = 0; t < nb.di.size(); ++t) {
      for (std::size_t olev = 0; olev < cfg.n_levels; ++olev) {
        // Rossby-coupled 3-D distance: vertical separation enters as an
        // equivalent horizontal distance of (levels apart) * L_R.
        const double dlev = static_cast<double>(olev) - static_cast<double>(lev);
        const double deff = std::hypot(nb.dist[t], dlev * cfg.rossby_radius_m);
        const double rho = gaspari_cohn(deff, gc_halfwidth);
        if (rho < cfg.min_weight) continue;
        entries.push_back(TemplEntry{static_cast<std::int32_t>(nb.di[t]),
                                     static_cast<std::int32_t>(nb.dj[t]), olev * area, rho});
      }
    }
  }

  // Every column's local observation count: the scheduler's bucketing key
  // and the materialization budget's input.
  pl.col_pl.resize(d);
  parallel::parallel_for(
      d,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t g = b; g < e; ++g) {
          std::uint32_t cnt = 0;
          pl.for_each(g, [&](std::int32_t, double) { ++cnt; });
          pl.col_pl[g] = cnt;
        }
      },
      cfg.nx, cfg.n_threads);

  // Materialize every column's (obs, weight) list when the lists fit the
  // budget; otherwise analyses walk the template per column.
  pl.col_off.assign(d + 1, 0);
  for (std::size_t g = 0; g < d; ++g) pl.col_off[g + 1] = pl.col_off[g] + pl.col_pl[g];
  const std::uint64_t total = pl.col_off[d];
  if (total * (sizeof(std::int32_t) + sizeof(double)) <= kPlanBudgetBytes) {
    pl.materialized = true;
    pl.sel_idx.resize(total);
    pl.sel_w.resize(total);
    parallel::parallel_for(
        d,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t g = b; g < e; ++g) {
            std::uint64_t at = pl.col_off[g];
            pl.for_each(g, [&](std::int32_t o, double wv) {
              pl.sel_idx[at] = o;
              pl.sel_w[at] = wv;
              ++at;
            });
          }
        },
        cfg.nx, cfg.n_threads);
  }
  return plan;
}

const LETKF::Plan& LETKF::plan_for(const ObservationOperator& h, const DiagonalR& r) {
  auto locs_opt = h.locations();
  TURBDA_REQUIRE(locs_opt.has_value(), "LETKF requires gridded observation locations");
  const std::size_t p = h.obs_dim();
  TURBDA_REQUIRE(locs_opt->size() == p && r.dim() == p, "LETKF: obs metadata size mismatch");
  std::vector<double> rvar(p);
  for (std::size_t o = 0; o < p; ++o) rvar[o] = r.variance(o);
  if (plan_ != nullptr && plan_->matches(*locs_opt, rvar)) return *plan_;
  TURBDA_SPAN("letkf.plan_build");
  WallTimer t;
  plan_ = Plan::build(cfg_, std::move(*locs_opt), std::move(rvar));
  if (cfg_.collect_timings) timings_.plan_ms += t.milliseconds();
  return *plan_;
}

void LETKF::prepare(const ObservationOperator& h, const DiagonalR& r) { (void)plan_for(h, r); }

void LETKF::analyze(Ensemble& ens, std::span<const double> y, const ObservationOperator& h,
                    const DiagonalR& r) {
  const Status s = analyze_impl(ens, y, h, r, AnalysisOptions{}, nullptr);
  TURBDA_REQUIRE(s.ok(), "LETKF analysis failed — " << s.to_string());
}

Status LETKF::try_analyze(Ensemble& ens, std::span<const double> y, const ObservationOperator& h,
                          const DiagonalR& r, const AnalysisOptions& opts, AnalysisStats* stats) {
  try {
    return analyze_impl(ens, y, h, r, opts, stats);
  } catch (const Error& e) {
    return Status(StatusCode::kFailed, e.what());
  }
}

Status LETKF::analyze_impl(Ensemble& ens, std::span<const double> y,
                           const ObservationOperator& h, const DiagonalR& r,
                           const AnalysisOptions& opts, AnalysisStats* stats) {
  const std::size_t m = ens.size();
  const std::size_t d = ens.dim();
  const std::size_t p = h.obs_dim();
  TURBDA_REQUIRE(d == cfg_.nx * cfg_.ny * cfg_.n_levels,
                 "LETKF: state dim inconsistent with configured grid");
  TURBDA_REQUIRE(y.size() == p && r.dim() == p, "LETKF: obs dim mismatch");
  TURBDA_REQUIRE(opts.r_scale >= 1.0, "LETKF: r_scale must be >= 1");
  TURBDA_REQUIRE(opts.obs_mask.empty() || opts.obs_mask.size() == p,
                 "LETKF: obs_mask size mismatch");
  const std::uint8_t* mask = opts.obs_mask.empty() ? nullptr : opts.obs_mask.data();
  if (Status s = check_observations_finite("LETKF", y, opts); !s.ok()) return s;
  const double inv_r_scale = 1.0 / opts.r_scale;
  if (stats != nullptr) {
    *stats = AnalysisStats{.obs_total = p};
    if (mask != nullptr)
      for (std::size_t o = 0; o < p; ++o) stats->obs_masked += mask[o] ? 0 : 1;
  }

  TURBDA_SPAN("letkf.analyze");
  // Phase clocks run when either consumer is live: the cumulative timings_
  // report (collect_timings) or the trace. Merging into timings_ stays gated
  // on collect_timings alone so tracing never changes the bench numbers.
  const bool tm_cfg = cfg_.collect_timings;
  const bool tr = telemetry::tracing_enabled();
  const bool tm = tm_cfg || tr;
  WallTimer t_total;
  const Plan& plan = plan_for(h, r);

  // Prior statistics.
  const auto xbar = ens.mean();
  const std::vector<double> prior_sd = ens.stddev();

  // Column-major (d x m) prior perturbations: every per-column kernel below
  // then reads/writes contiguous m-vectors. Transposes are elementwise, so
  // they are bitwise independent of the chunking.
  Tensor xbT({d, m});
  parallel::parallel_for(
      d,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t k = 0; k < m; ++k) {
          const auto row = ens.member(k);
          for (std::size_t g = b; g < e; ++g) xbT(g, k) = row[g] - xbar[g];
        }
      },
      4096, cfg_.n_threads);

  // Obs-space ensemble: mean, innovations, and column-major (p x m)
  // perturbations Yb^T.
  Tensor yensT({p, m});
  std::vector<double> ybar(p, 0.0), innov(p);
  {
    Tensor yens({m, p});
    std::vector<double> buf(p);
    for (std::size_t k = 0; k < m; ++k) {
      h.apply(ens.member(k), buf);
      std::copy(buf.begin(), buf.end(), yens.row(k).begin());
    }
    for (std::size_t k = 0; k < m; ++k) {
      const auto row = yens.row(k);
      for (std::size_t o = 0; o < p; ++o) ybar[o] += row[o];
    }
    for (double& v : ybar) v /= static_cast<double>(m);
    // Masked innovations are pinned to 0, never computed: a QC-excised raw
    // value may be non-finite and 0 * NaN would poison the weighted sums.
    for (std::size_t o = 0; o < p; ++o)
      innov[o] = (mask != nullptr && mask[o] == 0) ? 0.0 : y[o] - ybar[o];
    parallel::parallel_for(
        p,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t o = b; o < e; ++o) {
            double* dst = &yensT(o, 0);
            for (std::size_t k = 0; k < m; ++k) dst[k] = yens(k, o) - ybar[o];
          }
        },
        4096, cfg_.n_threads);
  }

  // Output analysis, column-major like xbT.
  Tensor xaT({d, m});
  const double sqm1 = std::sqrt(static_cast<double>(m - 1));
  const auto keep_forecast = [&](std::size_t g) {
    for (std::size_t k = 0; k < m; ++k) xaT(g, k) = xbar[g] + xbT(g, k);
  };
  std::mutex tm_mu;
  std::mutex stats_mu;
  std::size_t solver_failures = 0;

  // One chunk = one worker's contiguous range of columns, with chunk-local
  // scratch. The chunk sorts its observed columns by local observation
  // count and cuts every equal-size run into batches of kLaneBatch columns
  // that advance in lockstep, one per SIMD lane, through the lane-batched
  // gather/Gram/eigensolve/weights/combine below. A run's last, partial
  // batch is padded by repeating its last column: every lane then holds a
  // well-posed problem, the pad copies converge in the same sweeps as that
  // column so jacobi_eigh_batch runs at full width without extra work, and
  // only real lanes are written back or counted. A lane's arithmetic never
  // depends on what shares its batch and columns touch disjoint xaT rows,
  // so the result is bitwise identical for any thread count — and so for
  // any chunking, packing and padding.
  const auto solve_columns = [&](std::size_t c_begin, std::size_t c_end) {
    const auto& dk = simd::active_dense_kernels();
    // Lane-interleaved SoA scratch: element e of lane l at buf[e * W + l].
    constexpr std::size_t W = simd::kLaneBatch;
    std::array<std::vector<std::int32_t>, W> sel_idx_b;
    std::array<std::vector<double>, W> sel_w_b;
    simd::LaneBuffer yTb, yTwb, sTb, weffb, wib;
    simd::LaneBuffer amatb(m * m * W), vb(m * m * W), wlb(m * W);
    simd::LaneBuffer cdb(m * W), vtcdb(m * W), wbarb(m * W), wbb(m * W), isqb(m * W),
        accb(m * W), xbTb(m * W), xaTb(m * W);
    simd::LaneBuffer vTb(m * m * W), usTb(m * m * W), wmatb(m * m * W);
    tensor::EighInfo einfos[W];
    tensor::EighBatchScratch eigh_scratch;
    std::vector<std::uint32_t> order;
    std::size_t loc_solved = 0, loc_batched_cols = 0, loc_scalar_cols = 0, loc_rank_p_cols = 0,
                loc_failures = 0;
    LetkfTimings pt;
    WallTimer ph;
    auto& tc = telemetry::TraceCollector::instance();
    const std::uint64_t chunk_t0 = tr ? tc.now_ns() : 0;

    // Solves the W columns cols[0..W) with local problem size pl; lanes at
    // and past n_real are pads repeating cols[n_real - 1]. A batch with fewer
    // local observations than members (pl < m) goes through the rank-p
    // observation-space solve, p x p instead of m x m; both paths end in the
    // same wmat for the shared combine.
    const auto solve_batch = [&](const std::uint32_t* cols, std::size_t n_real, std::size_t pl) {
      const bool rank_p = pl < m;
      const std::size_t n = rank_p ? pl : m;  // eigenproblem size
      // Local observation selection: materialized list or template walk.
      if (tm) ph.reset();
      const std::int32_t* sidx[W];
      const double* sw[W];
      for (std::size_t l = 0; l < W; ++l) {
        const std::uint32_t g = cols[l];
        if (plan.materialized) {
          sidx[l] = plan.sel_idx.data() + plan.col_off[g];
          sw[l] = plan.sel_w.data() + plan.col_off[g];
        } else {
          sel_idx_b[l].clear();
          sel_w_b[l].clear();
          plan.for_each(g, [&](std::int32_t o, double wv) {
            sel_idx_b[l].push_back(o);
            sel_w_b[l].push_back(wv);
          });
          sidx[l] = sel_idx_b[l].data();
          sw[l] = sel_w_b[l].data();
        }
      }
      if (tm) pt.select_ms += ph.milliseconds();

      // Gather the lanes' local Yb^T rows, the R-scaled copies and the scaled
      // innovations, lane-interleaved. The m x m path scales by Rloc^{-1}
      // (C^T = Rloc^{-1} Yb); the rank-p path by Rloc^{-1/2} (S = Rloc^{-1/2}
      // Yb and Rloc^{-1/2} d), and also transposes S for its Gram build.
      if (tm) ph.reset();
      yTb.resize(pl * m * W);
      yTwb.resize(pl * m * W);
      weffb.resize(pl * W);
      wib.resize(pl * W);
      for (std::size_t o = 0; o < pl; ++o) {
        for (std::size_t l = 0; l < W; ++l) {
          const auto oidx = static_cast<std::size_t>(sidx[l][o]);
          const double* src = &yensT(oidx, 0);
          double* dst = &yTb[o * m * W + l];
          for (std::size_t k = 0; k < m; ++k) dst[k * W] = src[k];
          // QC enters here rather than in the plan: the effective weight of
          // a masked observation is 0 (exact excision) and r_scale uniformly
          // deflates R^{-1}, so the cached network plan stays valid. With
          // default options w_eff == sw bitwise (inv_r_scale is exactly 1).
          const double w_eff =
              (mask != nullptr && mask[oidx] == 0) ? 0.0 : sw[l][o] * inv_r_scale;
          const double w_row = rank_p ? std::sqrt(w_eff) : w_eff;
          weffb[o * W + l] = w_row;
          wib[o * W + l] = w_row * innov[oidx];
        }
        dk.bscale(&yTwb[o * m * W], &yTb[o * m * W], m, &weffb[o * W]);
      }
      if (rank_p) {
        sTb.resize(m * pl * W);
        for (std::size_t o = 0; o < pl; ++o)
          for (std::size_t k = 0; k < m; ++k)
            for (std::size_t l = 0; l < W; ++l)
              sTb[(k * pl + o) * W + l] = yTwb[(o * m + k) * W + l];
      }
      if (tm) pt.gather_ms += ph.milliseconds();

      // m x m: A = (m-1) I + Yb^T Rloc^{-1} Yb, reduced over local obs.
      // rank-p: S S^T, reduced over members. Upper triangle row by row — one
      // Vec op per element keeps all lanes busy even on the short row tails.
      if (tm) ph.reset();
      const double* gx = rank_p ? sTb.data() : yTwb.data();
      const double* gy = rank_p ? sTb.data() : yTb.data();
      const std::size_t n_red = rank_p ? m : pl;
      for (std::size_t a = 0; a < n; ++a) {
        std::fill_n(&amatb[(a * n + a) * W], (n - a) * W, 0.0);
        dk.baccum_rows(&amatb[(a * n + a) * W], gx + a * W, n, gy + a * W, n, n_red, n - a);
      }
      for (std::size_t a = 0; a < n; ++a) {
        if (!rank_p)
          for (std::size_t l = 0; l < W; ++l)
            amatb[(a * n + a) * W + l] += static_cast<double>(m - 1);
        for (std::size_t b = a + 1; b < n; ++b)
          for (std::size_t l = 0; l < W; ++l)
            amatb[(b * n + a) * W + l] = amatb[(a * n + b) * W + l];
      }
      if (tm) pt.gram_ms += ph.milliseconds();

      // A non-convergent local solve never crosses a thread boundary as an
      // exception: with fallback enabled the column keeps its forecast and
      // cycling continues; otherwise the throw is marshalled by parallel_for
      // to the calling thread, and xaT is simply discarded.
      if (tm) ph.reset();
      tensor::jacobi_eigh_batch(amatb.data(), n, W, vb.data(), wlb.data(), cfg_.eigh_max_sweeps,
                                einfos, &eigh_scratch);
      if (tm) pt.eigh_ms += ph.milliseconds();
      for (std::size_t l = 0; l < n_real; ++l)
        if (!einfos[l].converged)
          TURBDA_REQUIRE(cfg_.eigh_fallback,
                         "jacobi_eigh: not converged after "
                             << einfos[l].sweeps << " sweeps (off-diagonal Frobenius "
                             << einfos[l].off_fro << ")");

      // Ensemble-space weights. Non-converged lanes hold the benign identity
      // eigensystem; their results are discarded below.
      if (tm) ph.reset();
      if (rank_p) {
        // S S^T = U diag(lambda) U^T, G = S^T U (m x p), a = m - 1:
        //   wbar = G diag(1/(a + lambda)) U^T Rloc^{-1/2} d,
        //   wmat(k, i) = wbar_k + delta_ki + sum_j G(k,j) gamma_j G(i,j),
        //   gamma_j = -1 / (sqrt(a + lambda_j) (sqrt(a + lambda_j) + sqrt(a))).
        // Nothing divides by lambda: a masked observation is a zero row of S,
        // a lambda = 0 pair with a zero column of G. vTb holds G^T and usTb
        // the gamma-scaled G^T.
        for (std::size_t j = 0; j < pl; ++j) {
          std::fill_n(&vTb[j * m * W], m * W, 0.0);
          dk.baccum_rows(&vTb[j * m * W], &vb[j * W], pl, yTwb.data(), m, pl, m);
        }
        std::fill(vtcdb.begin(), vtcdb.end(), 0.0);
        dk.baccum_rows(vtcdb.data(), wib.data(), 1, vb.data(), pl, pl, pl);
        for (std::size_t j = 0; j < pl; ++j)
          for (std::size_t l = 0; l < W; ++l) {
            const double al = static_cast<double>(m - 1) + wlb[j * W + l];
            const double sal = std::sqrt(al);
            wbarb[j * W + l] = vtcdb[j * W + l] / al;
            isqb[j * W + l] = -1.0 / (sal * (sal + sqm1));
          }
        std::fill(wbb.begin(), wbb.end(), 0.0);
        dk.baccum_rows(wbb.data(), wbarb.data(), 1, vTb.data(), m, pl, m);
        for (std::size_t j = 0; j < pl; ++j)
          dk.bscale(&usTb[j * m * W], &vTb[j * m * W], m, &isqb[j * W]);
        for (std::size_t k = 0; k < m; ++k) {
          std::fill(accb.begin(), accb.end(), 0.0);
          dk.baccum_rows(accb.data(), &vTb[k * W], m, usTb.data(), m, pl, m);
          for (std::size_t l = 0; l < W; ++l) accb[k * W + l] += 1.0;
          dk.bscale_shift(&wmatb[k * m * W], accb.data(), m, 1.0, &wbb[k * W]);
        }
      } else {
        // A = V diag(l) V^T: wbar = V diag(1/l) V^T C innov and
        // wmat(k, i) = (V wbar)_k + sqrt(m-1) sum_a V(k,a) V(i,a) / sqrt(l_a).
        std::fill(cdb.begin(), cdb.end(), 0.0);
        dk.baccum_rows(cdb.data(), wib.data(), 1, yTb.data(), m, pl, m);
        std::fill(vtcdb.begin(), vtcdb.end(), 0.0);
        dk.baccum_rows(vtcdb.data(), cdb.data(), 1, vb.data(), m, m, m);
        for (std::size_t a = 0; a < m; ++a)
          for (std::size_t l = 0; l < W; ++l) {
            wbarb[a * W + l] = vtcdb[a * W + l] / wlb[a * W + l];
            isqb[a * W + l] = 1.0 / std::sqrt(wlb[a * W + l]);
          }
        for (std::size_t a = 0; a < m; ++a)
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t l = 0; l < W; ++l)
              vTb[(a * m + i) * W + l] = vb[(i * m + a) * W + l];
        std::fill(wbb.begin(), wbb.end(), 0.0);
        dk.baccum_rows(wbb.data(), wbarb.data(), 1, vTb.data(), m, m, m);
        for (std::size_t a = 0; a < m; ++a)
          dk.bscale(&usTb[a * m * W], &vTb[a * m * W], m, &isqb[a * W]);
        for (std::size_t k = 0; k < m; ++k) {
          std::fill(accb.begin(), accb.end(), 0.0);
          dk.baccum_rows(accb.data(), &vb[k * m * W], 1, usTb.data(), m, m, m);
          dk.bscale_shift(&wmatb[k * m * W], accb.data(), m, sqm1, &wbb[k * W]);
        }
      }
      if (tm) pt.weights_ms += ph.milliseconds();

      // Posterior combine, one column per lane:
      // xa(:, g) = xbar[g] + wmat^T Xb(:, g). Non-converged real lanes keep
      // the forecast; pad lanes are never written back.
      if (tm) ph.reset();
      double xbarb[W];
      for (std::size_t l = 0; l < W; ++l) {
        const std::size_t g = cols[l];
        for (std::size_t k = 0; k < m; ++k) xbTb[k * W + l] = xbT(g, k);
        xbarb[l] = xbar[g];
      }
      std::fill(accb.begin(), accb.end(), 0.0);
      dk.baccum_rows(accb.data(), xbTb.data(), 1, wmatb.data(), m, m, m);
      dk.bscale_shift(xaTb.data(), accb.data(), m, 1.0, xbarb);
      for (std::size_t l = 0; l < n_real; ++l) {
        const std::size_t g = cols[l];
        if (!einfos[l].converged) {
          ++loc_failures;
          keep_forecast(g);
          continue;
        }
        for (std::size_t k = 0; k < m; ++k) xaT(g, k) = xaTb[k * W + l];
      }
      if (tm) pt.combine_ms += ph.milliseconds();
    };

    // Columns without local observations keep the forecast; the rest are
    // ordered by local problem size, then index.
    if (tm) ph.reset();
    order.clear();
    for (std::size_t g = c_begin; g < c_end; ++g) {
      if (plan.col_pl[g] == 0) {
        keep_forecast(g);
        ++loc_scalar_cols;
      } else {
        order.push_back(static_cast<std::uint32_t>(g));
      }
    }
    if (tm) pt.combine_ms += ph.milliseconds();
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      const std::uint32_t pa = plan.col_pl[a], pb = plan.col_pl[b];
      return pa != pb ? pa < pb : a < b;
    });
    std::uint32_t lanes[W];
    for (std::size_t i = 0; i < order.size();) {
      const std::uint32_t pl_run = plan.col_pl[order[i]];
      std::size_t n_real = 1;
      while (n_real < W && i + n_real < order.size() && plan.col_pl[order[i + n_real]] == pl_run)
        ++n_real;
      for (std::size_t l = 0; l < W; ++l) lanes[l] = order[i + std::min(l, n_real - 1)];
      solve_batch(lanes, n_real, pl_run);
      (n_real == W ? loc_batched_cols : loc_scalar_cols) += n_real;
      if (pl_run < m) loc_rank_p_cols += n_real;
      loc_solved += n_real;
      i += n_real;
    }

    if (loc_failures != 0) {
      const std::lock_guard<std::mutex> lock(stats_mu);
      solver_failures += loc_failures;
    }
    if (tm_cfg) {
      const std::lock_guard<std::mutex> lock(tm_mu);
      timings_.select_ms += pt.select_ms;
      timings_.gather_ms += pt.gather_ms;
      timings_.gram_ms += pt.gram_ms;
      timings_.eigh_ms += pt.eigh_ms;
      timings_.weights_ms += pt.weights_ms;
      timings_.combine_ms += pt.combine_ms;
      timings_.groups += loc_solved;
      timings_.batched_columns += loc_batched_cols;
      timings_.scalar_columns += loc_scalar_cols;
      timings_.rank_p_columns += loc_rank_p_cols;
    }
    if (tr) {
      // Per-batch-per-phase spans would be far too hot (thousands of
      // batches x 6 phases per chunk); instead emit one chunk span plus
      // synthetic children holding the chunk's aggregated per-phase totals,
      // laid out sequentially from the chunk start (their sum is bounded by
      // the chunk duration, so the trace viewer nests them inside it).
      const std::uint64_t chunk_t1 = tc.now_ns();
      tc.complete("letkf.solve_groups", chunk_t0, chunk_t1 - chunk_t0);
      std::uint64_t at = chunk_t0;
      const auto emit = [&](const char* phase_name, double phase_ms) {
        if (phase_ms <= 0.0) return;
        const auto ns = static_cast<std::uint64_t>(phase_ms * 1e6);
        tc.complete(phase_name, at, ns);
        at += ns;
      };
      emit("letkf.select", pt.select_ms);
      emit("letkf.gather", pt.gather_ms);
      emit("letkf.gram", pt.gram_ms);
      emit("letkf.eigh", pt.eigh_ms);
      emit("letkf.weights", pt.weights_ms);
      emit("letkf.combine", pt.combine_ms);
    }
  };

  try {
    parallel::parallel_for(d, solve_columns, std::max<std::size_t>(1, cfg_.nx / 2),
                           cfg_.n_threads);
  } catch (const Error& e) {
    // eigh_fallback == false: the whole analysis fails, ensemble untouched.
    return Status(StatusCode::kNonConvergent, e.what());
  }
  if (stats != nullptr) {
    // Every failed solve is one column keeping its forecast.
    stats->solver_failures = solver_failures;
    stats->fallback_columns = solver_failures;
  }

  // Write the analysis back member-major.
  parallel::parallel_for(
      d,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t k = 0; k < m; ++k) {
          auto row = ens.member(k);
          for (std::size_t g = b; g < e; ++g) row[g] = xaT(g, k);
        }
      },
      4096, cfg_.n_threads);

  // RTPS inflation: relax analysis spread toward the prior spread.
  if (cfg_.rtps > 0.0) {
    const auto post_sd = ens.stddev();
    const auto mu = ens.mean();
    for (std::size_t i = 0; i < d; ++i) {
      if (post_sd[i] <= 1e-12) continue;
      const double scale = 1.0 + cfg_.rtps * (prior_sd[i] - post_sd[i]) / post_sd[i];
      for (std::size_t k = 0; k < m; ++k) {
        auto row = ens.member(k);
        row[i] = mu[i] + (row[i] - mu[i]) * scale;
      }
    }
  }

  if (tm_cfg) {
    timings_.total_ms += t_total.milliseconds();
    timings_.analyses += 1;
    timings_.columns += d;
  }
  return Status::Ok();
}

}  // namespace turbda::da
