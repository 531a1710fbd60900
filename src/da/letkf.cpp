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
#include "simd/kernels.hpp"
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

/// A solve chunk's scratch: the lane-interleaved pipeline buffers (element e
/// of lane l at buf[e * kLaneBatch + l]), the node order, the two-row window
/// of node weights with its per-node failure flags, and the blend buffers
/// (the x-blends of both rows, then the y-blend). Per thread and kept across
/// analyses, like the FFT scratch, so a warmed analysis allocates nothing per
/// chunk: allocating it per chunk call placed small blocks above the
/// analysis buffers in the calling thread's heap, which then could not shrink,
/// and raised the cycle benchmark's peak RSS by ~3 MB.
struct ChunkScratch {
  std::array<std::vector<std::int32_t>, simd::kLaneBatch> sel_idx_b;
  std::array<std::vector<double>, simd::kLaneBatch> sel_w_b;
  simd::LaneBuffer yTb, yTwb, sTb, weffb, wib;
  simd::LaneBuffer amatb, vb, vTb, usTb, wmatb;  // m x m per lane
  simd::LaneBuffer wlb, cdb, vtcdb, wbarb, wbb, isqb, accb, xbTb, xaTb;  // m per lane
  tensor::EighBatchScratch eigh;
  std::vector<std::uint32_t> order;
  std::array<simd::LaneBuffer, 2> win;
  std::array<std::vector<std::uint8_t>, 2> failed;
  simd::LaneBuffer bx, by;
};

ChunkScratch& chunk_scratch() {
  thread_local ChunkScratch scratch;
  return scratch;
}

}  // namespace

std::size_t letkf_coarse_stride(const LetkfConfig& cfg) {
  const double spacing = std::max(cfg.domain_m / static_cast<double>(cfg.nx),
                                  cfg.domain_m / static_cast<double>(cfg.ny));
  for (std::size_t s = std::min(cfg.nx, cfg.ny); s > 1; --s)
    if (cfg.nx % s == 0 && cfg.ny % s == 0 &&
        static_cast<double>(s) * spacing <= cfg.cutoff_m / 6.0)
      return s;
  return 1;
}

/// Budget for materializing the per-node (obs, weight) lists of a plan.
/// The benchmark's sparse networks fit (~1 MiB), and so do the identity
/// network's at n = 128 (8192 nodes x 678 entries, 63.6 MiB); larger dense
/// networks walk the weight template per node instead.
constexpr std::uint64_t kPlanBudgetBytes = std::uint64_t{64} << 20;

/// Cached local-observation plan for one observation network on one grid.
///
/// Everything the per-column observation selection used to recompute every
/// cycle is hoisted here and keyed on the network (locations + R variances):
/// the Gaspari–Cohn weights collapse to a translation-invariant template
/// per (analysis level, cell offset, obs level) — all hypot/GC evaluations
/// happen once per network, not once per column per cycle — and every
/// column's local observation count is recorded for the lane-batch
/// scheduler and the between-node fill. When the resolved (obs, w) lists of
/// the coarse-grid nodes, the only columns solved, fit kPlanBudgetBytes they
/// are materialized outright, removing even the template walk from the
/// analysis hot path.
struct LETKF::Plan {
  /// One non-negligible template entry: cell offset (di, dj), observation
  /// level (as a flat cell-index base), localization weight.
  struct TemplEntry {
    std::int32_t di, dj;
    std::size_t olev_base;
    double rho;
  };

  std::size_t nx = 0, ny = 0, nlev = 0;
  /// Coarse grid: stride, nodes per node row (x) and node rows per level (y).
  std::size_t stride = 1, nodes_x = 0, nodes_y = 0;

  // Network signature for invalidation.
  std::vector<ObsLocation> locs;
  std::vector<double> rvar;

  std::vector<std::vector<TemplEntry>> tmpl;  ///< per analysis level
  std::vector<std::int32_t> wrapx, wrapy;     ///< periodic index wrap, offset by nx/ny
  std::vector<std::int32_t> cell_obs;         ///< cell -> obs index, -1 unobserved
  std::vector<double> inv_rvar;               ///< 1 / R diagonal

  // Materialized per-node selections (sel_* stay empty otherwise).
  bool materialized = false;
  std::vector<std::uint64_t> node_off;  ///< nodes + 1 prefix offsets
  std::vector<std::int32_t> sel_idx;
  std::vector<double> sel_w;

  /// Per-column local observation count: lets the lane-batch scheduler
  /// bucket nodes by problem shape without walking the template, and tells
  /// the fill which columns keep the forecast.
  std::vector<std::uint32_t> col_pl;

  /// Column index of node q = (lev * nodes_y + J) * nodes_x + I.
  [[nodiscard]] std::size_t node_column(std::size_t q) const {
    const std::size_t per_level = nodes_x * nodes_y;
    const std::size_t rem = q % per_level;
    return ((q / per_level) * ny + rem / nodes_x * stride) * nx + rem % nodes_x * stride;
  }
  /// Node index of node column g.
  [[nodiscard]] std::size_t node_of(std::size_t g) const {
    const std::size_t area = nx * ny;
    const std::size_t rem = g % area;
    return ((g / area) * nodes_y + rem / nx / stride) * nodes_x + rem % nx / stride;
  }

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
  pl.stride = letkf_coarse_stride(cfg);
  pl.nodes_x = cfg.nx / pl.stride;
  pl.nodes_y = cfg.ny / pl.stride;
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

  // Materialize every node's (obs, weight) list when the lists fit the
  // budget; otherwise analyses walk the template per node.
  const std::size_t nodes = cfg.n_levels * pl.nodes_x * pl.nodes_y;
  pl.node_off.assign(nodes + 1, 0);
  for (std::size_t q = 0; q < nodes; ++q)
    pl.node_off[q + 1] = pl.node_off[q] + pl.col_pl[pl.node_column(q)];
  const std::uint64_t total = pl.node_off[nodes];
  if (total * (sizeof(std::int32_t) + sizeof(double)) <= kPlanBudgetBytes) {
    pl.materialized = true;
    pl.sel_idx.resize(total);
    pl.sel_w.resize(total);
    parallel::parallel_for(
        nodes,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t q = b; q < e; ++q) {
            std::uint64_t at = pl.node_off[q];
            pl.for_each(pl.node_column(q), [&](std::int32_t o, double wv) {
              pl.sel_idx[at] = o;
              pl.sel_w[at] = wv;
              ++at;
            });
          }
        },
        pl.nodes_x, cfg.n_threads);
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

  // Prior mean, column-major (d x m) perturbations and, for RTPS, prior
  // spread: every per-column kernel below then reads/writes contiguous
  // m-vectors. Each column's sums run in member order with the operations
  // of Ensemble::mean() and stddev(), so the values are theirs bit for bit
  // and independent of the chunking.
  const bool rtps = cfg_.rtps > 0.0;
  const double inv_m = 1.0 / static_cast<double>(m);
  const double inv_m1 = 1.0 / static_cast<double>(m - 1);
  std::vector<double> xbar(d, 0.0), prior_sd(rtps ? d : 0);
  Tensor xbT({d, m});
  parallel::parallel_for(
      d,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t k = 0; k < m; ++k) {
          const auto row = ens.member(k);
          for (std::size_t g = b; g < e; ++g) xbar[g] += row[g];
        }
        for (std::size_t g = b; g < e; ++g) xbar[g] *= inv_m;
        for (std::size_t k = 0; k < m; ++k) {
          const auto row = ens.member(k);
          for (std::size_t g = b; g < e; ++g) xbT(g, k) = row[g] - xbar[g];
        }
        if (!rtps) return;
        for (std::size_t g = b; g < e; ++g) {
          double v = 0.0;
          for (std::size_t k = 0; k < m; ++k) {
            const double dv = xbT(g, k);
            v += dv * dv;
          }
          prior_sd[g] = std::sqrt(v * inv_m1);
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
  std::size_t solver_failures = 0, fallback_columns = 0;

  // Coarse grid: stride s, ni nodes per node row, nj node rows per level.
  // Between two node rows, the window holds each row's node weight matrices
  // (m x m, wbar folded in) lane-interleaved in nbk blocks of W nodes plus
  // one wrap block: lane l of block b holds node (b + l * nbk) mod ni, so
  // block b + 1 holds, lane for lane, the right-hand neighbours of block b,
  // the last node's being node 0.
  constexpr std::size_t W = simd::kLaneBatch;
  const std::size_t s = plan.stride, ni = plan.nodes_x, nj = plan.nodes_y;
  const bool coarse = s > 1;
  const std::size_t nbk = (ni + W - 1) / W;
  const std::size_t mm = m * m;
  const std::size_t blk = mm * W;  // doubles per window block

  // One chunk = one worker's contiguous range of coarse-row intervals, with
  // its thread's ChunkScratch. Interval (lev, J) covers the fine rows J s ..
  // J s + s - 1 of level lev, between node rows J and J + 1 (mod nj). The
  // chunk solves the node row below its first interval (and below the first
  // interval of every later level), then per interval the node row above,
  // and fills the interval's between-node columns from the two rows. Only
  // the node rows of its own intervals write the analysis and count; the
  // row above its last interval (and a level's wrap row) is solved again,
  // with the same bits, by the chunk that owns it.
  //
  // A node-row solve sorts its observed nodes by local observation count and
  // cuts every equal-size run into batches of kLaneBatch nodes that advance in
  // lockstep, one per SIMD lane, through the lane-batched
  // gather/Gram/eigensolve/weights/combine below. A run's last, partial
  // batch is padded by repeating its last node: every lane then holds a
  // well-posed problem, the pad copies converge in the same sweeps as that
  // node so jacobi_eigh_batch runs at full width without extra work, and
  // only real lanes are written back or counted. A lane's arithmetic never
  // depends on what shares its batch, a column's blend reads only its
  // stencil nodes' weights, and columns touch disjoint xaT rows, so the
  // result is bitwise identical for any thread count — and so for any
  // chunking, packing and padding.
  const auto solve_intervals = [&](std::size_t t_begin, std::size_t t_end) {
    const auto& dk = simd::active_kernels();
    auto& [sel_idx_b, sel_w_b, yTb, yTwb, sTb, weffb, wib, amatb, vb, vTb, usTb, wmatb, wlb, cdb,
           vtcdb, wbarb, wbb, isqb, accb, xbTb, xaTb, eigh_scratch, order, win, failed, bx, by] =
        chunk_scratch();
    for (simd::LaneBuffer* b : {&amatb, &vb, &vTb, &usTb, &wmatb}) b->resize(mm * W);
    for (simd::LaneBuffer* b : {&wlb, &cdb, &vtcdb, &wbarb, &wbb, &isqb, &accb, &xbTb, &xaTb})
      b->resize(m * W);
    if (coarse) {
      for (std::size_t w = 0; w < 2; ++w) {
        win[w].resize((nbk + 1) * blk);
        failed[w].resize(ni);
      }
      bx.resize(2 * blk);
      by.resize(blk);
    }
    tensor::EighInfo einfos[W];
    std::size_t loc_solved = 0, loc_batched_cols = 0, loc_scalar_cols = 0, loc_rank_p_cols = 0,
                loc_failures = 0, loc_fallback = 0;
    LetkfTimings pt;
    WallTimer ph;
    auto& tc = telemetry::TraceCollector::instance();
    const std::uint64_t chunk_t0 = tr ? tc.now_ns() : 0;

    // Posterior combine, one column per lane, into xaTb:
    // xa(:, g) = xbar[g] + wm^T Xb(:, g), wm lane-interleaved m x m.
    const auto combine = [&](const std::uint32_t* cols, const double* wm) {
      double xbarb[W];
      for (std::size_t l = 0; l < W; ++l) {
        const std::size_t g = cols[l];
        for (std::size_t k = 0; k < m; ++k) xbTb[k * W + l] = xbT(g, k);
        xbarb[l] = xbar[g];
      }
      std::fill(accb.begin(), accb.end(), 0.0);
      dk.baccum_rows(accb.data(), xbTb.data(), 1, wm, m, m, m);
      dk.bscale_shift(xaTb.data(), accb.data(), m, 1.0, xbarb);
    };
    const auto write_lane = [&](std::size_t g, std::size_t l) {
      for (std::size_t k = 0; k < m; ++k) xaT(g, k) = xaTb[k * W + l];
    };
    // Node `node`'s own slot in window row w: lane node / nbk of block
    // node mod nbk.
    const auto slot = [&](std::size_t w, std::size_t node) {
      return &win[w][node % nbk * blk + node / nbk];
    };

    // Solves the W nodes cols[0..W) with local problem size pl; lanes at
    // and past n_real are pads repeating cols[n_real - 1]. A batch with fewer
    // local observations than members (pl < m) goes through the rank-p
    // observation-space solve, p x p instead of m x m; both paths end in the
    // same wmat for the shared combine. An owned batch writes its nodes'
    // analysis; on the coarse grid every batch parks its weights in window
    // row `w`.
    const auto solve_batch = [&](const std::uint32_t* cols, std::size_t n_real, std::size_t pl,
                                 std::size_t w, bool owned) {
      const bool rank_p = pl < m;
      const std::size_t n = rank_p ? pl : m;  // eigenproblem size
      // Local observation selection: materialized list or template walk.
      if (tm) ph.reset();
      const std::int32_t* sidx[W];
      const double* sw[W];
      for (std::size_t l = 0; l < W; ++l) {
        const std::uint32_t g = cols[l];
        if (plan.materialized) {
          const std::uint64_t off = plan.node_off[plan.node_of(g)];
          sidx[l] = plan.sel_idx.data() + off;
          sw[l] = plan.sel_w.data() + off;
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

      // Owned nodes: posterior combine. Non-converged real lanes keep the
      // forecast; pad lanes are never written back. Coarse grid: each real
      // lane's weights go to its node's window slot.
      if (tm) ph.reset();
      if (owned) {
        combine(cols, wmatb.data());
        for (std::size_t l = 0; l < n_real; ++l) {
          const std::size_t g = cols[l];
          if (!einfos[l].converged) {
            ++loc_failures;
            keep_forecast(g);
            continue;
          }
          write_lane(g, l);
        }
      }
      if (coarse)
        for (std::size_t l = 0; l < n_real; ++l) {
          const std::size_t node = cols[l] % cfg_.nx / s;
          failed[w][node] = einfos[l].converged ? 0 : 1;
          double* dst = slot(w, node);
          for (std::size_t e = 0; e < mm; ++e) dst[e * W] = wmatb[e * W + l];
        }
      if (tm) pt.combine_ms += ph.milliseconds();
    };

    // Solves the node rows [r_begin, r_end), row r = lev * nj + J. Nodes
    // without local observations keep the forecast and give the identity
    // transform; the rest are ordered by local problem size, then index, so
    // equal sizes share lane batches across the rows. Coarse grid: one row
    // at a time, whose weights land in window row w, and the wrap block and
    // pad lanes are filled from their nodes' slots.
    const auto solve_rows = [&](std::size_t r_begin, std::size_t r_end, std::size_t w,
                                bool owned) {
      if (tm) ph.reset();
      order.clear();
      for (std::size_t row = r_begin; row < r_end; ++row)
        for (std::size_t node = 0; node < ni; ++node) {
          const std::size_t g = (row / nj * cfg_.ny + row % nj * s) * cfg_.nx + node * s;
          if (plan.col_pl[g] != 0) {
            order.push_back(static_cast<std::uint32_t>(g));
            continue;
          }
          if (owned) {
            keep_forecast(g);
            ++loc_scalar_cols;
          }
          if (coarse) {
            failed[w][node] = 0;
            double* dst = slot(w, node);
            for (std::size_t e = 0; e < mm; ++e) dst[e * W] = (e % (m + 1) == 0) ? 1.0 : 0.0;
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
        while (n_real < W && i + n_real < order.size() &&
               plan.col_pl[order[i + n_real]] == pl_run)
          ++n_real;
        for (std::size_t l = 0; l < W; ++l) lanes[l] = order[i + std::min(l, n_real - 1)];
        solve_batch(lanes, n_real, pl_run, w, owned);
        if (owned) {
          (n_real == W ? loc_batched_cols : loc_scalar_cols) += n_real;
          if (pl_run < m) loc_rank_p_cols += n_real;
          loc_solved += n_real;
        }
        i += n_real;
      }
      if (!coarse) return;
      if (tm) ph.reset();
      for (std::size_t b = 0; b <= nbk; ++b)
        for (std::size_t l = 0; l < W; ++l) {
          const std::size_t v = b + l * nbk;
          if (b < nbk && v < ni) continue;  // the node's own slot
          const double* src = slot(w, v % ni);
          double* dst = &win[w][b * blk + l];
          for (std::size_t e = 0; e < mm; ++e) dst[e * W] = src[e * W];
        }
      if (tm) pt.combine_ms += ph.milliseconds();
    };

    // out = (1 - f) a + f b over one window block, f shared by the lanes.
    const auto blend = [&](double* out, const double* a, const double* b, double f) {
      double ca[W], cb[W];
      std::fill_n(ca, W, 1.0 - f);
      std::fill_n(cb, W, f);
      dk.bscale(out, a, mm, ca);
      dk.baccum_rows(out, cb, 0, b, mm, 1, mm);
    };

    // Fills the between-node columns of interval (lev, J) from window rows
    // lo (node row J) and hi (node row J + 1): column (J s + ry, I s + rx)
    // blends nodes I and I + 1 (mod ni) along x with fx = rx / s, then the
    // two rows along y with fy = ry / s, and combines, one column per lane.
    // A column without local observations keeps the forecast, and so does
    // one whose blend would read a failed node's weights.
    const auto fill_interval = [&](std::size_t lev, std::size_t J, std::size_t lo,
                                   std::size_t hi) {
      if (tm) ph.reset();
      const double inv_s = 1.0 / static_cast<double>(s);
      std::uint32_t cols[W];
      for (std::size_t b = 0; b < nbk; ++b) {
        for (std::size_t rx = 0; rx < s; ++rx) {
          const double* wx_lo = &win[lo][b * blk];
          const double* wx_hi = &win[hi][b * blk];
          if (rx > 0) {
            const double fx = static_cast<double>(rx) * inv_s;
            blend(bx.data(), wx_lo, wx_lo + blk, fx);
            blend(bx.data() + blk, wx_hi, wx_hi + blk, fx);
            wx_lo = bx.data();
            wx_hi = bx.data() + blk;
          }
          for (std::size_t ry = 0; ry < s; ++ry) {
            if (rx == 0 && ry == 0) continue;  // the nodes: solve_rows wrote them
            const std::size_t row = (lev * cfg_.ny + J * s + ry) * cfg_.nx + rx;
            unsigned todo = 0;
            for (std::size_t l = 0; l < W; ++l) {
              const std::size_t node = b + l * nbk;
              cols[l] = static_cast<std::uint32_t>(row + (node < ni ? node : b) * s);
              if (node >= ni) continue;  // pad lane
              const std::size_t g = cols[l];
              const std::size_t next = (node + 1) % ni;
              const bool stencil_failed =
                  failed[lo][node] != 0 || (rx > 0 && failed[lo][next] != 0) ||
                  (ry > 0 && (failed[hi][node] != 0 || (rx > 0 && failed[hi][next] != 0)));
              if (plan.col_pl[g] == 0 || stencil_failed) {
                keep_forecast(g);
                if (plan.col_pl[g] != 0) ++loc_fallback;
                continue;
              }
              todo |= 1u << l;
            }
            if (todo == 0) continue;
            const double* wm = wx_lo;
            if (ry > 0) {
              blend(by.data(), wx_lo, wx_hi, static_cast<double>(ry) * inv_s);
              wm = by.data();
            }
            combine(cols, wm);
            for (std::size_t l = 0; l < W; ++l)
              if (todo & (1u << l)) write_lane(cols[l], l);
          }
        }
      }
      if (tm) pt.combine_ms += ph.milliseconds();
    };

    // Stride 1: every column is a node, and the chunk's rows are solved as
    // one set. Coarse grid: the two-row window slides over the intervals.
    if (!coarse) solve_rows(t_begin, t_end, 0, true);
    std::size_t lo = 0;
    for (std::size_t t = t_begin; coarse && t < t_end; ++t) {
      const std::size_t lev = t / nj, J = t % nj;
      if (t == t_begin || J == 0) solve_rows(t, t + 1, lo, true);
      const std::size_t up = lev * nj + (J + 1) % nj;
      solve_rows(up, up + 1, 1 - lo, J + 1 < nj && t + 1 < t_end);
      fill_interval(lev, J, lo, 1 - lo);
      lo = 1 - lo;
    }

    if (loc_failures != 0 || loc_fallback != 0) {
      const std::lock_guard<std::mutex> lock(stats_mu);
      solver_failures += loc_failures;
      fallback_columns += loc_failures + loc_fallback;
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
    parallel::parallel_for(cfg_.n_levels * nj, solve_intervals, 1, cfg_.n_threads);
  } catch (const Error& e) {
    // eigh_fallback == false: the whole analysis fails, ensemble untouched.
    return Status(StatusCode::kNonConvergent, e.what());
  }
  if (stats != nullptr) {
    stats->solver_failures = solver_failures;
    stats->fallback_columns = fallback_columns;
  }

  // Write the analysis back member-major. RTPS first relaxes each column's
  // analysis spread toward its prior spread; its posterior mean and spread
  // are summed in member order with the operations of Ensemble::mean() and
  // stddev(), so every value is the whole-ensemble formula's bit for bit.
  parallel::parallel_for(
      d,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t g = b; rtps && g < e; ++g) {
          double* xa = &xaT(g, 0);
          double mu = 0.0;
          for (std::size_t k = 0; k < m; ++k) mu += xa[k];
          mu *= inv_m;
          double v = 0.0;
          for (std::size_t k = 0; k < m; ++k) {
            const double dv = xa[k] - mu;
            v += dv * dv;
          }
          const double post_sd = std::sqrt(v * inv_m1);
          if (post_sd <= 1e-12) continue;
          const double scale = 1.0 + cfg_.rtps * (prior_sd[g] - post_sd) / post_sd;
          for (std::size_t k = 0; k < m; ++k) xa[k] = mu + (xa[k] - mu) * scale;
        }
        for (std::size_t k = 0; k < m; ++k) {
          auto row = ens.member(k);
          for (std::size_t g = b; g < e; ++g) row[g] = xaT(g, k);
        }
      },
      4096, cfg_.n_threads);

  if (tm_cfg) {
    timings_.total_ms += t_total.milliseconds();
    timings_.analyses += 1;
    timings_.columns += d;
  }
  return Status::Ok();
}

}  // namespace turbda::da
