// Shared machinery for the Fig. 4 / Fig. 5 reproduction benches: builds the
// paper's SQG OSSE (§IV-A-b) and runs the four configurations
//   SQG only / ViT only / SQG+LETKF / ViT+EnSF.
//
// All states are assimilated in Kelvin-equivalent units so the paper's
// "R = I" observation-error setting is meaningful. Model error uses the
// paper's four-component stochastic process referenced to the climatological
// state magnitude.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "da/ensf.hpp"
#include "da/letkf.hpp"
#include "models/model_error.hpp"
#include "models/scaled_forecast.hpp"
#include "nn/surrogate.hpp"
#include "sqg/sqg.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

namespace turbda::bench {

struct SqgExperimentConfig {
  std::size_t n = 32;          ///< grid (paper: 64; 32 keeps the default bench fast)
  int cycles = 40;             ///< paper: 300 (t in [0, 3600] h, 12 h windows)
  std::size_t members = 20;    ///< paper: 20
  double window_hours = 12.0;
  double obs_error_var = 1.0;  ///< R = I in Kelvin units
  std::uint64_t seed = 2024;
  // Surrogate (kept small so offline pretraining fits a CPU budget).
  std::size_t vit_embed = 64;
  std::size_t vit_depth = 3;
  std::size_t vit_heads = 4;
  std::size_t vit_patch = 4;
  int vit_pretrain_pairs = 96;
  int vit_pretrain_epochs = 25;
  /// true: draw initial members from the climatological pool (paper's
  /// wording); false: truth + 1.5 K perturbations, which also reproduces the
  /// paper's initial error-growth phase for the free runs.
  bool clim_init = false;
  double init_spread_k = 1.5;
  /// Worker threads for the per-member forecast loop (0 = all pool workers,
  /// 1 = serial); bitwise identical for any value.
  std::size_t forecast_threads = 0;
};

struct SqgExperiment {
  explicit SqgExperiment(const SqgExperimentConfig& cfg) : cfg(cfg) {
    sqg::SqgConfig mc;
    mc.n = cfg.n;
    mc.dt = (cfg.n <= 32) ? 1800.0 : 900.0;
    // Damping strong enough for a statistically steady attractor: the
    // uniform-shear configuration has an unbounded APE reservoir, so without
    // sufficient thermal relaxation + Ekman drag the eddies outgrow the CFL
    // limit (equilibrates near 4-5 K RMS with these values).
    mc.t_diab = 2.0 * 86400.0;
    mc.r_ekman = 200.0;
    mc.diff_efold = 3.0 * 3600.0;
    model = std::make_shared<sqg::SqgModel>(mc);
    kelvin = models::sqg_kelvin_scale(300.0, mc.f);

    // --- spin up a turbulent truth state (in solver units) ------------------
    rng::Rng rng(cfg.seed);
    truth0_raw.resize(model->dim());
    model->random_init(truth0_raw, rng, /*rms=*/2.0 / kelvin, /*k_peak=*/4);
    model->advance(truth0_raw, 40.0 * 86400.0);  // 40 days of development

    // --- climatology: a long trajectory for init ensemble + training pairs --
    std::vector<double> state = truth0_raw;
    const double window_s = cfg.window_hours * 3600.0;
    const int n_snap = cfg.vit_pretrain_pairs + 1;
    climatology.reset({static_cast<std::size_t>(n_snap), model->dim()});
    for (int s = 0; s < n_snap; ++s) {
      model->advance(state, window_s);
      auto row = climatology.row(static_cast<std::size_t>(s));
      for (std::size_t i = 0; i < model->dim(); ++i) row[i] = state[i] * kelvin;
    }

    // Climatological magnitude in Kelvin = the paper's "average SQG model
    // values" that the model-error amplitudes are relative to.
    double s2 = 0.0;
    for (double v : climatology.flat()) s2 += v * v;
    clim_rms = std::sqrt(s2 / static_cast<double>(climatology.size()));

    // The experiment truth starts where the climatology run ended, so the
    // training data precedes (and never overlaps) the evaluation period.
    truth0_raw = state;
  }

  /// Offline-pretrained ViT surrogate ("the pre-trained ViT surrogate of the
  /// true SQG dynamics"). Returns the trained forecast wrapper.
  std::shared_ptr<nn::SurrogateForecast> train_surrogate(std::vector<double>* losses = nullptr) {
    nn::VitConfig vc;
    vc.image = cfg.n;
    vc.patch = cfg.vit_patch;
    vc.channels = 2;
    vc.embed_dim = cfg.vit_embed;
    vc.depth = cfg.vit_depth;
    vc.heads = cfg.vit_heads;
    vc.seed = cfg.seed + 7;
    auto vit = std::make_shared<nn::ViT>(vc);

    nn::FieldScaler scaler;
    scaler.fit(climatology);

    const std::size_t pairs = climatology.extent(0) - 1;
    nn::Tensor xs({pairs, model->dim()}), ys({pairs, model->dim()});
    for (std::size_t p = 0; p < pairs; ++p) {
      std::copy(climatology.row(p).begin(), climatology.row(p).end(), xs.row(p).begin());
      std::copy(climatology.row(p + 1).begin(), climatology.row(p + 1).end(), ys.row(p).begin());
    }
    nn::SurrogateTrainer trainer(vit, scaler, nn::AdamWConfig{.lr = 2e-3});
    rng::Rng trng(cfg.seed + 11);
    auto ls = trainer.fit(xs, ys, cfg.vit_pretrain_epochs, 16, 2e-3, trng);
    if (losses) *losses = ls;
    return std::make_shared<nn::SurrogateForecast>(vit, scaler);
  }

  /// Runs one of the four configurations and returns per-cycle metrics.
  /// `surrogate == nullptr` -> physics (SQG) forecasts with the imperfect-
  /// model error process; otherwise the ViT surrogate forecasts (no injected
  /// error — its imperfection is intrinsic). The OSSE is a zero-latency
  /// synthetic stream cycled by the serial real-time runner.
  std::vector<stream::StreamCycleMetrics> run(da::Filter* filter,
                                              nn::SurrogateForecast* surrogate) {
    runner_.reset();  // both refer to the models rebuilt below
    stream_.reset();
    truth_scaled_ = std::make_unique<models::ScaledForecast>(*sqg_raw(), kelvin);
    physics_scaled_ = std::make_unique<models::ScaledForecast>(*sqg_raw2(), kelvin);
    models::ScaledForecast& truth_model = *truth_scaled_;
    models::ScaledForecast& physics = *physics_scaled_;

    obs_ = std::make_unique<da::IdentityObs>(model->dim(), cfg.n, cfg.n, 2);
    rmat_ = std::make_unique<da::DiagonalR>(model->dim(), cfg.obs_error_var);
    da::IdentityObs& h = *obs_;
    da::DiagonalR& r = *rmat_;

    merr_ = std::make_unique<models::ModelErrorProcess>(
        models::ModelErrorConfig{.reference_scale = clim_rms});
    models::ModelErrorProcess& me = *merr_;

    stream::RealtimeConfig rc;
    rc.n_members = cfg.members;
    rc.cycles = cfg.cycles;
    rc.window_hours = cfg.window_hours;
    rc.seed = cfg.seed + 99;
    rc.inject_model_error = (surrogate == nullptr);
    rc.init_spread = cfg.init_spread_k;
    rc.n_forecast_threads = cfg.forecast_threads;

    std::vector<double> truth0_k(model->dim());
    for (std::size_t i = 0; i < model->dim(); ++i) truth0_k[i] = truth0_raw[i] * kelvin;

    models::ForecastModel& fcst =
        surrogate ? static_cast<models::ForecastModel&>(*surrogate) : physics;
    stream_ = std::make_unique<stream::SyntheticStream>(
        stream::SyntheticStreamConfig{.seed = rc.seed}, truth_model, h, r, truth0_k);
    runner_ = std::make_unique<stream::RealtimeRunner>(rc, *stream_, fcst, filter, &me);

    if (cfg.clim_init) {
      // Initial ensemble from the climatological pool (paper: "random
      // selection of model states from a long-term integration").
      da::Ensemble init(cfg.members, model->dim());
      rng::Rng prng(cfg.seed + 55);
      for (std::size_t m = 0; m < cfg.members; ++m) {
        const auto src = climatology.row(prng.uniform_int(climatology.extent(0)));
        std::copy(src.begin(), src.end(), init.member(m).begin());
      }
      return runner_->run(truth0_k, &init);
    }
    return runner_->run(truth0_k);
  }

  /// Final truth and analysis ensemble of the last run() (Fig. 5).
  [[nodiscard]] const std::vector<double>& final_truth() const { return stream_->latest_truth(); }
  [[nodiscard]] const da::Ensemble& ensemble() const { return runner_->ensemble(); }

  /// Paper-tuned LETKF for this grid: RTPS 0.3, 2000 km cutoff.
  [[nodiscard]] da::LetkfConfig letkf_config() const {
    da::LetkfConfig lc;
    lc.nx = cfg.n;
    lc.ny = cfg.n;
    lc.n_levels = 2;
    lc.domain_m = model->config().L;
    lc.cutoff_m = 2.0e6;
    lc.rtps = 0.3;
    lc.rossby_radius_m = std::sqrt(model->config().nsq) * model->config().H / model->config().f;
    return lc;
  }

  SqgExperimentConfig cfg;
  std::shared_ptr<sqg::SqgModel> model;
  double kelvin = 1.0;
  double clim_rms = 0.0;
  std::vector<double> truth0_raw;  // solver units
  nn::Tensor climatology;          // Kelvin units, (snapshots, dim)

 private:
  // Each ScaledForecast needs a live SqgForecast; keep them owned here.
  sqg::SqgForecast* sqg_raw() {
    if (!fc1_) fc1_ = std::make_unique<sqg::SqgForecast>(model, cfg.window_hours * 3600.0);
    return fc1_.get();
  }
  sqg::SqgForecast* sqg_raw2() {
    if (!fc2_) fc2_ = std::make_unique<sqg::SqgForecast>(model, cfg.window_hours * 3600.0);
    return fc2_.get();
  }
  std::unique_ptr<sqg::SqgForecast> fc1_, fc2_;
  std::unique_ptr<models::ScaledForecast> truth_scaled_, physics_scaled_;
  std::unique_ptr<da::IdentityObs> obs_;
  std::unique_ptr<da::DiagonalR> rmat_;
  std::unique_ptr<models::ModelErrorProcess> merr_;
  std::unique_ptr<stream::SyntheticStream> stream_;
  std::unique_ptr<stream::RealtimeRunner> runner_;
};

}  // namespace turbda::bench
