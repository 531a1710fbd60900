#include "da/ensf.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/kernels.hpp"
#include "telemetry/trace.hpp"

namespace turbda::da {

using tensor::Tensor;

EnSF::EnSF(EnsfConfig cfg) : cfg_(cfg) {
  TURBDA_REQUIRE(cfg_.euler_steps >= 2, "EnSF needs at least 2 Euler steps");
  TURBDA_REQUIRE(cfg_.relax_spread >= 0.0 && cfg_.relax_spread <= 1.0,
                 "relax_spread must be in [0,1]");
}

Status EnSF::try_analyze(Ensemble& ens, std::span<const double> y, const ObservationOperator& h,
                         const DiagonalR& r, const AnalysisOptions& opts, AnalysisStats* stats) {
  try {
    return analyze_impl(ens, y, h, r, opts, stats);
  } catch (const Error& e) {
    return Status(StatusCode::kFailed, e.what());
  }
}

bool EnSF::save_state(std::vector<std::uint8_t>& out) const {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(cycle_ >> (8 * i)));
  return true;
}

bool EnSF::restore_state(std::span<const std::uint8_t> in) {
  if (in.size() != 8) return false;
  std::uint64_t c = 0;
  for (int i = 0; i < 8; ++i) c |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  cycle_ = c;
  return true;
}

Status EnSF::analyze_impl(Ensemble& ens, std::span<const double> y,
                          const ObservationOperator& h, const DiagonalR& r,
                          const AnalysisOptions& opts, AnalysisStats* stats) {
  TURBDA_SPAN("ensf.analyze");
  const WallTimer t_total;
  const std::size_t big_m = ens.size();  // number of analysis samples to draw
  const std::size_t d = ens.dim();
  TURBDA_REQUIRE(h.state_dim() == d, "EnSF: operator/state dim mismatch");
  TURBDA_REQUIRE(y.size() == h.obs_dim() && r.dim() == h.obs_dim(),
                 "EnSF: obs vector / R dim mismatch");
  TURBDA_REQUIRE(opts.r_scale >= 1.0, "EnSF: r_scale must be >= 1");
  TURBDA_REQUIRE(opts.obs_mask.empty() || opts.obs_mask.size() == h.obs_dim(),
                 "EnSF: obs_mask size mismatch");
  const std::uint8_t* mask = opts.obs_mask.empty() ? nullptr : opts.obs_mask.data();
  // A non-finite residual would reach the likelihood clamp as a silent
  // +/-max_like_step pull every Euler step, so refuse the batch before any
  // state (ensemble, cycle counter) changes.
  if (Status s = check_observations_finite("EnSF", y, opts); !s.ok()) return s;
  const double inv_r_scale = 1.0 / opts.r_scale;
  if (stats != nullptr) {
    *stats = AnalysisStats{.obs_total = h.obs_dim()};
    if (mask != nullptr)
      for (std::size_t o = 0; o < h.obs_dim(); ++o) stats->obs_masked += mask[o] ? 0 : 1;
  }

  // Counter-based RNG layout: one base stream per assimilation cycle for the
  // shared draws (minibatch shuffles), plus a derived substream per analysis
  // sample. Samples own their noise, so the sample blocks below run in
  // parallel with bitwise-reproducible results for any thread count (§III-A3).
  rng::Rng rng(cfg_.seed, /*stream=*/++cycle_);
  std::vector<rng::Rng> sample_rng;
  sample_rng.reserve(big_m);
  for (std::size_t j = 0; j < big_m; ++j) sample_rng.push_back(rng.substream(j));

  // Forecast ensemble X (the score's target sample). The samples live in `z`
  // and replace `ens` only after the fan-out, so X is read in place.
  const Tensor& forecast = ens.data();
  const std::vector<double> prior_sd = ens.stddev();
  // Scalar prior spread for the (optional) kernel-smoothed score bandwidth.
  double spread_sq = 0.0;
  for (double v : prior_sd) spread_sq += v * v;
  spread_sq /= static_cast<double>(d);
  const double kappa_sq = cfg_.kernel_bandwidth * cfg_.kernel_bandwidth * spread_sq;

  // |x_j|^2, reused every Euler step.
  std::vector<double> xsq(big_m);
  for (std::size_t j = 0; j < big_m; ++j) {
    double s = 0.0;
    const auto row = forecast.row(j);
    for (double v : row) s += v * v;
    xsq[j] = s;
  }
  // X^T (d x M), the score kernel's operand: row k holds every member's
  // component k.
  std::vector<double> xt(d * big_m);
  for (std::size_t k = 0; k < d; ++k)
    for (std::size_t j = 0; j < big_m; ++j) xt[k * big_m + j] = forecast.data()[j * d + k];

  const int n_steps = cfg_.euler_steps;
  const double dt = 1.0 / n_steps;
  const double eps_a = cfg_.eps_alpha;
  const std::size_t batch =
      (cfg_.minibatch > 0) ? std::min<std::size_t>(big_m, static_cast<std::size_t>(cfg_.minibatch))
                           : big_m;

  // Every step's score minibatch (Eq. 15), drawn up front from the shared
  // stream in step order: successive shuffles of one index list, whose first
  // `batch` entries pick the step's members. No sample block then waits on
  // another.
  std::vector<std::size_t> step_idx;
  if (batch < big_m) {
    std::vector<std::size_t> batch_idx(big_m);
    std::iota(batch_idx.begin(), batch_idx.end(), 0);
    step_idx.resize(static_cast<std::size_t>(n_steps) * batch);
    for (int step = 0; step < n_steps; ++step) {
      rng.shuffle(std::span<std::size_t>(batch_idx));
      std::copy_n(batch_idx.begin(), batch, step_idx.begin() + step * batch);
    }
  }

  // One fan-out: each chunk integrates its contiguous block of samples
  // through every Euler step with block-local scratch. Every step works row
  // by row, and each score-product element is a sequential sum over its own
  // row, so the analysis is bitwise identical for any block partition.
  Tensor z({big_m, d});
  std::mutex tm_mu;
  const auto integrate_block = [&](std::size_t mb, std::size_t me) {
    TURBDA_SPAN("ensf.block");
    WallTimer ph;
    EnsfTimings bt;
    const auto& dk = simd::active_kernels();
    const std::size_t rows = me - mb;
    std::vector<double> logits(rows * batch), wx(rows * d);
    // The minibatch of forecast members, as rows and transposed.
    std::vector<double> xb(step_idx.empty() ? 0 : batch * d), xbt(xb.size());
    std::vector<double> hx(h.obs_dim()), resid(h.obs_dim()), rinv_resid(h.obs_dim());
    std::vector<double> like_grad(d), noise(d);

    // Initial diffused samples: Z ~ N(0, I) at pseudo-time t = 1, each row
    // from its sample's own substream.
    for (std::size_t m = mb; m < me; ++m) sample_rng[m].fill_gaussian_lanes(z.row(m));
    double* const zb = z.row(mb).data();
    bt.noise_ms += ph.lap_ms();

    for (int step = 0; step < n_steps; ++step) {
      // Pseudo-time runs 1 -> dt; the last update lands the samples at t = 0.
      // alpha is clamped (alpha(1) = eps_alpha > 0) so b(t) stays bounded.
      const double t = 1.0 - step * dt;
      const double alpha = 1.0 - (1.0 - eps_a) * t;
      // Mixture-component bandwidth: beta^2 from the diffusion plus the
      // kernel smoothing term (zero by default — then this is exactly Eq. 16).
      const double beta_sq = t + alpha * alpha * kappa_sq;
      const double b_t = -(1.0 - eps_a) / alpha;
      const double sigma_sq = 1.0 - 2.0 * b_t * t;  // d(beta^2)/dt - 2 b beta^2
      // Likelihood damping h(t) = T - t with T = 1, times the strength.
      const double damping = (1.0 - t) * cfg_.likelihood_strength;

      // This step's score targets: the whole forecast, or the minibatch
      // gathered into block-local rows and their transpose.
      const double* x = forecast.data();
      const double* xtb = xt.data();
      const std::size_t* idx = nullptr;
      if (!step_idx.empty()) {
        idx = step_idx.data() + step * batch;
        for (std::size_t j = 0; j < batch; ++j) {
          const auto src = forecast.row(idx[j]);
          std::copy(src.begin(), src.end(), xb.begin() + j * d);
        }
        for (std::size_t k = 0; k < d; ++k)
          for (std::size_t j = 0; j < batch; ++j) xbt[k * batch + j] = xt[k * big_m + idx[j]];
        x = xb.data();
        xtb = xbt.data();
      }

      // logits_{mj} = -|z_m - alpha x_j|^2 / (2 beta^2); the |z_m|^2 term is
      // constant per row and drops out of the softmax.
      dk.matmul_rows(logits.data(), zb, d, rows, xtb, d, batch);  // z x^T
      bt.score_ms += ph.lap_ms();
      for (std::size_t i = 0; i < rows; ++i) {
        double* row = logits.data() + i * batch;
        double mx = -1e300;
        for (std::size_t j = 0; j < batch; ++j) {
          const double xsq_j = xsq[idx != nullptr ? idx[j] : j];
          row[j] = (2.0 * alpha * row[j] - alpha * alpha * xsq_j) / (2.0 * beta_sq);
          mx = std::max(mx, row[j]);
        }
        double denom = 0.0;
        for (std::size_t j = 0; j < batch; ++j) {
          row[j] = std::exp(row[j] - mx);
          denom += row[j];
        }
        const double inv = 1.0 / denom;
        for (std::size_t j = 0; j < batch; ++j) row[j] *= inv;
      }
      bt.softmax_ms += ph.lap_ms();

      // Weighted member average: wx = W X  (sum_j w_j x_j per sample).
      dk.matmul_rows(wx.data(), logits.data(), batch, rows, x, batch, d);
      bt.mean_ms += ph.lap_ms();

      // Euler–Maruyama update of each sample. The per-element update
      //   z += -(b z - sigma^2 s_prior) dt + clamp(sigma^2 h grad dt) + noise
      // with the prior score s_prior = -(z - alpha wx)/beta^2 (Eq. 15) is
      // regrouped by input vector so each pass is one contiguous
      // runtime-dispatched kernel:
      //   z = c0 z + c1 wx + clamp(cl grad, +/-max_like_step) + noise_sd xi.
      const double noise_sd = std::sqrt(std::max(sigma_sq, 0.0) * dt);
      const double c0 = 1.0 - (b_t + sigma_sq / beta_sq) * dt;
      const double c1 = sigma_sq * alpha * dt / beta_sq;
      const double cl = sigma_sq * damping * dt;
      for (std::size_t m = mb; m < me; ++m) {
        auto zm = z.row(m);

        // Likelihood score at z_m: J_h^T R^{-1} (y - h(z)). QC-masked
        // observations get a zero residual (their raw value is never
        // touched), and r_scale uniformly deflates the R^{-1} weighting.
        h.apply(zm, hx);
        for (std::size_t i = 0; i < hx.size(); ++i)
          resid[i] = (mask != nullptr && mask[i] == 0) ? 0.0 : y[i] - hx[i];
        r.apply_inverse(resid, rinv_resid);
        if (opts.r_scale != 1.0)
          dk.scale(rinv_resid.data(), rinv_resid.data(), rinv_resid.size(), inv_r_scale);
        h.adjoint(zm, rinv_resid, like_grad);
        bt.likelihood_ms += ph.lap_ms();

        // The sample's own noise, drawn up front in the same substream order
        // as a per-element loop would.
        sample_rng[m].fill_gaussian_lanes(noise);
        bt.noise_ms += ph.lap_ms();

        double* zp = zm.data();
        dk.scale(zp, zp, d, c0);
        dk.axpy(zp, wx.data() + (m - mb) * d, d, c1);
        // Clamp the per-step likelihood displacement: with very small R the
        // likelihood drift is stiff and explicit Euler would blow up.
        dk.clamped_axpy(zp, like_grad.data(), d, cl, cfg_.max_like_step);
        dk.axpy(zp, noise.data(), d, noise_sd);
        bt.update_ms += ph.lap_ms();
      }
    }

    const std::lock_guard<std::mutex> lock(tm_mu);
    timings_.score_ms += bt.score_ms;
    timings_.softmax_ms += bt.softmax_ms;
    timings_.mean_ms += bt.mean_ms;
    timings_.likelihood_ms += bt.likelihood_ms;
    timings_.noise_ms += bt.noise_ms;
    timings_.update_ms += bt.update_ms;
  };
  parallel::parallel_for(big_m, integrate_block, 1, cfg_.n_threads);

  ens.data() = std::move(z);

  // Relax analysis spread toward the prior spread (per-variable RTPS).
  if (cfg_.relax_spread > 0.0) {
    const auto post_sd = ens.stddev();
    const auto mu = ens.mean();
    for (std::size_t i = 0; i < d; ++i) {
      if (post_sd[i] <= 1e-12) continue;
      const double target = (1.0 - cfg_.relax_spread) * post_sd[i] + cfg_.relax_spread * prior_sd[i];
      const double scale = target / post_sd[i];
      for (std::size_t m = 0; m < big_m; ++m) {
        auto row = ens.member(m);
        row[i] = mu[i] + (row[i] - mu[i]) * scale;
      }
    }
  }
  timings_.total_ms += t_total.milliseconds();
  timings_.analyses += 1;
  return Status::Ok();
}

}  // namespace turbda::da
