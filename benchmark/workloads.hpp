// Workload table and seeded input generator for the cycle benchmark.
//
// Every workload is an SQG OSSE. The generator runs in its own process
// before anything is timed: it spins up a truth state from the seed, places
// the initial ensemble centre half a day back along the same trajectory, and
// records the nature run as a wire capture (observation, heartbeat and truth
// frames per window, plus the deliberately damaged copies and late arrival
// stamps some workloads need). The program under test receives only that
// capture, replayed through TailStream(stop_at_eof) + IngestStream, and the
// background file; the generator's truth stays out of the timed cycle.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "da/ensemble.hpp"
#include "da/observation.hpp"
#include "models/scaled_forecast.hpp"
#include "rng/rng.hpp"
#include "sqg/sqg.hpp"
#include "stream/ingest/wire.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

namespace cyclebench {

using namespace turbda;

inline constexpr std::size_t kMembers = 20;
inline constexpr double kWindowHours = 3.0;
inline constexpr double kInitSpreadK = 1.5;
/// The ensemble starts centred this far back along the truth's trajectory,
/// so a filter that stops correcting shows up as analysis error near the
/// free run's instead of near the observation-error floor.
inline constexpr double kDisplacementDays = 0.5;
/// Cycles the reported analysis RMSE is averaged over (the run's last ones).
inline constexpr int kRmseCycles = 10;

enum class FilterKind { Letkf, Ensf };

struct Workload {
  const char* name;
  std::size_t n = 128;     ///< grid points per side
  std::size_t stride = 8;  ///< observing network: every stride-th point (1 = identity)
  FilterKind filter = FilterKind::Letkf;
  stream::Schedule schedule = stream::Schedule::Serial;
  int overlap_depth = 1;
  double latency_cycles = 0.0;  ///< delivery latency after the window closes
  double jitter_cycles = 0.0;
  double corrupt_frac = 0.0;    ///< share of frames preceded by a damaged copy
  bool deep_qc = false;         ///< background-departure gate + stale-R inflation
  int checkpoint_every = 0;     ///< 0 = no periodic snapshots
  /// Cycles before timing starts: the first cycle, plus for the deep ring the
  /// cycles until late batches are staged and applied in steady rotation.
  int warmup_cycles = 1;
  /// Timed intervals per second of --seconds: the cycle rate measured on the
  /// reference box (4 vCPU, AVX2+FMA), so a run there measures about --seconds.
  double intervals_per_s = 1.0;
  /// Correctness gate: analysis RMSE must stay below this share of the RMSE
  /// of a free run (no assimilation) of the ensemble centre.
  double rmse_ceiling_frac = 0.75;
};

// Why each workload is in the benchmark (README.md maps layers to metrics):
//  - letkf_sparse_serial: the reference cycle; forecast and small-p LETKF
//    both block the period.
//  - letkf_sparse_overlap: the same capture with the K=1 pipeline, so forecast
//    and analysis contend for the same cores.
//  - letkf_sparse_deep: K=2 ring, very late and damaged deliveries, QC and
//    checkpoints; the only workload on the resync/late/checkpoint paths. Its
//    increments land five windows after their observations, so its gate only
//    asks it not to do worse than no assimilation.
//  - ensf_dense_n64: the paper's filter on the paper's 64x64x2 grid with the
//    identity network; bypasses LETKF entirely.
inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {.name = "letkf_sparse_serial", .intervals_per_s = 1.45},
      {.name = "letkf_sparse_overlap",
       .schedule = stream::Schedule::Overlapped,
       .intervals_per_s = 1.2},
      {.name = "letkf_sparse_deep",
       .schedule = stream::Schedule::Overlapped,
       .overlap_depth = 2,
       .latency_cycles = 2.6,
       .jitter_cycles = 0.3,
       .corrupt_frac = 0.1,
       .deep_qc = true,
       .checkpoint_every = 3,
       .warmup_cycles = 7,
       .intervals_per_s = 0.6,
       .rmse_ceiling_frac = 1.1},
      {.name = "ensf_dense_n64",
       .n = 64,
       .stride = 1,
       .filter = FilterKind::Ensf,
       .intervals_per_s = 1.6,
       .rmse_ceiling_frac = 0.6},
  };
  return table;
}

inline const Workload& find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (name == w.name) return w;
  throw std::runtime_error("unknown workload '" + name + "'");
}

/// Shortest run: the RMSE average must start after the filter's first
/// transient, or the gate below would judge convergence instead of accuracy.
inline constexpr int kMinWindows = 16;

/// Timed intervals in one run: enough to fill `seconds` on the reference box
/// and to reach kMinWindows, in whole checkpoint periods so every phase of
/// the checkpoint rotation is sampled equally.
inline int timed_intervals(const Workload& w, double seconds) {
  const int period = std::max(w.checkpoint_every, 1);
  int t = static_cast<int>(std::lround(seconds * w.intervals_per_s));
  t = (t + period / 2) / period * period;
  const int min_t = kMinWindows - w.warmup_cycles;
  if (t < min_t) t = (min_t + period - 1) / period * period;
  return t;
}

inline int windows_for(const Workload& w, double seconds) {
  return w.warmup_cycles + timed_intervals(w, seconds);
}

/// The damped, statistically steady SQG configuration of the repo's OSSE
/// benches (bench/sqg_experiment.hpp).
inline sqg::SqgConfig sqg_config(std::size_t n) {
  sqg::SqgConfig mc;
  mc.n = n;
  mc.dt = 900.0;
  mc.t_diab = 2.0 * 86400.0;
  mc.r_ekman = 200.0;
  mc.diff_efold = 3.0 * 3600.0;
  return mc;
}

inline double kelvin_scale() { return models::sqg_kelvin_scale(300.0, 1.0e-4); }

inline std::unique_ptr<da::ObservationOperator> make_network(const Workload& w) {
  if (w.stride == 1) return std::make_unique<da::IdentityObs>(2 * w.n * w.n, w.n, w.n, 2);
  return std::make_unique<da::SubsampleObs>(da::SubsampleObs::strided_grid(w.n, w.n, 2, w.stride));
}

// ---------------------------------------------------------------------------
// Files one generated workload hands to the run: capture.bin (wire frames),
// background.bin (initial ensemble centre, Kelvin), truth_tail.bin (truth of
// the last kRmseCycles windows) and manifest.txt (the counts the run checks).
// ---------------------------------------------------------------------------

struct Manifest {
  int windows = 0;
  std::size_t dim = 0;
  std::uint64_t frames_good = 0;     ///< intact frames written
  std::uint64_t frames_damaged = 0;  ///< damaged copies written ahead of them
  double free_rmse_k = 0.0;          ///< free run of the centre, mean over the RMSE cycles
  std::vector<double> arrivals;      ///< per-window virtual arrival stamp
};

inline void write_doubles(const std::string& path, const std::vector<double>& v) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(v.data()), static_cast<std::streamsize>(v.size() * 8));
  if (!f.good()) throw std::runtime_error("cannot write " + path);
}

inline std::vector<double> read_doubles(const std::string& path, std::size_t count) {
  std::vector<double> v(count);
  std::ifstream f(path, std::ios::binary);
  f.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(count * 8));
  if (!f.good()) throw std::runtime_error("cannot read " + path);
  return v;
}

inline void write_manifest(const std::string& path, const Manifest& m) {
  std::ofstream f(path, std::ios::trunc);
  f.precision(17);
  f << "windows " << m.windows << "\ndim " << m.dim << "\nframes_good " << m.frames_good
    << "\nframes_damaged " << m.frames_damaged << "\nfree_rmse_k " << m.free_rmse_k
    << "\narrivals";
  for (double a : m.arrivals) f << ' ' << a;
  f << '\n';
  if (!f.good()) throw std::runtime_error("cannot write " + path);
}

inline Manifest read_manifest(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  Manifest m;
  std::string key;
  while (f >> key) {
    if (key == "windows") f >> m.windows;
    else if (key == "dim") f >> m.dim;
    else if (key == "frames_good") f >> m.frames_good;
    else if (key == "frames_damaged") f >> m.frames_damaged;
    else if (key == "free_rmse_k") f >> m.free_rmse_k;
    else if (key == "arrivals") {
      m.arrivals.resize(static_cast<std::size_t>(m.windows));
      for (double& a : m.arrivals) f >> a;
    } else {
      throw std::runtime_error("unexpected manifest key " + key);
    }
  }
  if (!f.eof() || m.windows <= 0 || m.arrivals.size() != static_cast<std::size_t>(m.windows))
    throw std::runtime_error("malformed manifest " + path);
  return m;
}

/// Seed-independent spun-up state for grid n (solver units): 20 days from a
/// fixed large-scale initial condition. Cached in `cache_dir` because it is
/// the same for every seed and costs far more than a run's own inputs.
inline std::vector<double> attractor_state(const sqg::SqgModel& model,
                                           const std::string& cache_dir) {
  const std::string path = cache_dir + "/attractor_n" + std::to_string(model.n()) + ".bin";
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (probe && static_cast<std::size_t>(probe.tellg()) == model.dim() * 8)
      return read_doubles(path, model.dim());
  }
  std::vector<double> x(model.dim());
  rng::Rng rng(2024);
  model.random_init(x, rng, 2.0 / kelvin_scale(), 4);
  model.advance(x, 20.0 * 86400.0);
  const std::string tmp = path + ".tmp";
  write_doubles(tmp, x);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) throw std::runtime_error("cannot write " + path);
  return x;
}

/// Generates one workload's inputs into `dir`. Deterministic in `seed`.
inline Manifest generate(const Workload& w, std::uint64_t seed, int windows,
                         const std::string& dir, const std::string& cache_dir) {
  const double kelvin = kelvin_scale();
  auto model = std::make_shared<sqg::SqgModel>(sqg_config(w.n));
  const std::size_t dim = model->dim();

  // Seeded truth: the cached attractor state plus a seed-drawn large-scale
  // perturbation, developed for a day so the seeds' flows decorrelate. The
  // ensemble centre is that state; the truth starts kDisplacementDays later
  // along the same trajectory.
  std::vector<double> x = attractor_state(*model, cache_dir);
  {
    std::vector<double> pert(dim);
    rng::Rng rng(seed);
    model->random_init(pert, rng, 0.5 / kelvin, 8);
    for (std::size_t i = 0; i < dim; ++i) x[i] += pert[i];
  }
  model->advance(x, 86400.0);
  std::vector<double> centre(dim);
  for (std::size_t i = 0; i < dim; ++i) centre[i] = x[i] * kelvin;
  model->advance(x, kDisplacementDays * 86400.0);
  std::vector<double> truth0(dim);
  for (std::size_t i = 0; i < dim; ++i) truth0[i] = x[i] * kelvin;

  sqg::SqgForecast raw(model, kWindowHours * 3600.0);
  models::ScaledForecast truth_model(raw, kelvin);
  const auto h = make_network(w);
  const da::DiagonalR r(h->obs_dim(), 1.0);
  stream::SyntheticStreamConfig sc;
  sc.seed = seed;
  sc.latency_cycles = w.latency_cycles;
  sc.jitter_cycles = w.jitter_cycles;
  stream::SyntheticStream nature(sc, truth_model, *h, r, truth0);

  // The free run (the centre forecast, never corrected) is independent of
  // the nature run, so it integrates on its own thread.
  const std::size_t tail_size = static_cast<std::size_t>(kRmseCycles) * dim;
  std::vector<double> free_tail(tail_size);
  auto free_run = std::async(std::launch::async, [&] {
    std::vector<double> xf = centre;
    for (int k = 0; k < windows; ++k) {
      truth_model.forecast(xf);
      if (k >= windows - kRmseCycles)
        std::copy(xf.begin(), xf.end(),
                  free_tail.begin() +
                      static_cast<long>(static_cast<std::size_t>(k - windows + kRmseCycles) * dim));
    }
  });

  Manifest m;
  m.windows = windows;
  m.dim = dim;
  rng::Rng wire_rng = rng::Rng(seed).substream(13);
  std::ofstream cap(dir + "/capture.bin", std::ios::binary | std::ios::trunc);
  std::vector<double> tail;
  std::uint64_t seq = 0;
  for (int k = 0; k < windows; ++k) {
    nature.produce(k);
    std::vector<stream::ObsBatch> got;
    nature.collect(HUGE_VAL, got);
    if (got.size() != 1 || got[0].cycle != k) throw std::runtime_error("nature run lost a window");
    m.arrivals.push_back(got[0].arrival_cycles);
    const auto truth = nature.truth(k);
    if (k >= windows - kRmseCycles) tail.insert(tail.end(), truth.begin(), truth.end());

    // Truth goes last: IngestStream::produce(k) stops reading once window k's
    // truth is in, so the final window's truth ends the file and the whole
    // capture is consumed by a complete run.
    std::vector<std::vector<std::uint8_t>> frames(3);
    stream::ingest::encode_obs_frame(got[0], frames[0]);
    stream::ingest::encode_heartbeat_frame(k, seq++, frames[1]);
    stream::ingest::encode_truth_frame(k, truth, frames[2]);
    for (const auto& f : frames) {
      if (w.corrupt_frac > 0.0 && wire_rng.bernoulli(w.corrupt_frac)) {
        // A damaged copy (payload bit flips the CRC must catch), sometimes
        // followed by line noise, ahead of the intact frame: the decoder has
        // to resynchronize, but no window loses data.
        std::vector<std::uint8_t> bad = f;
        bad[stream::ingest::kWireHeaderBytes + 1] ^= 0x5A;
        cap.write(reinterpret_cast<const char*>(bad.data()),
                  static_cast<std::streamsize>(bad.size()));
        if (wire_rng.bernoulli(0.5))
          for (int i = 0; i < 24; ++i) cap.put(static_cast<char>((i * 7 + 1) % 251));
        ++m.frames_damaged;
      }
      cap.write(reinterpret_cast<const char*>(f.data()), static_cast<std::streamsize>(f.size()));
      ++m.frames_good;
    }
  }
  cap.close();
  if (!cap.good()) throw std::runtime_error("cannot write " + dir + "/capture.bin");
  free_run.get();
  for (std::size_t off = 0; off < tail_size; off += dim)
    m.free_rmse_k += da::rmse(std::span<const double>(free_tail).subspan(off, dim),
                              std::span<const double>(tail).subspan(off, dim)) /
                     kRmseCycles;
  write_doubles(dir + "/background.bin", centre);
  write_doubles(dir + "/truth_tail.bin", tail);
  write_manifest(dir + "/manifest.txt", m);
  return m;
}

}  // namespace cyclebench
