#include "stream/synthetic_stream.hpp"

#include "common/bytes.hpp"
#include "common/check.hpp"

namespace turbda::stream {

SyntheticStream::SyntheticStream(SyntheticStreamConfig cfg, models::ForecastModel& truth_model,
                                 const da::ObservationOperator& h, const da::DiagonalR& r,
                                 std::span<const double> truth0)
    : cfg_(cfg),
      truth_model_(truth_model),
      h_(h),
      r_(r),
      rng_obs_(rng::Rng(cfg.seed).substream(1)),
      rng_delivery_(rng::Rng(cfg.seed).substream(3)) {
  TURBDA_REQUIRE(truth0.size() == truth_model_.dim(), "SyntheticStream: truth0 size mismatch");
  TURBDA_REQUIRE(h_.state_dim() == truth_model_.dim(),
                 "SyntheticStream: observation operator dim mismatch");
  TURBDA_REQUIRE(r_.dim() == h_.obs_dim(), "SyntheticStream: R dim mismatch");
  TURBDA_REQUIRE(cfg_.latency_cycles >= 0.0 && cfg_.jitter_cycles >= 0.0 &&
                     cfg_.dropout_prob >= 0.0 && cfg_.dropout_prob <= 1.0 &&
                     cfg_.truth_buffer >= 2,
                 "SyntheticStream: bad delivery configuration");
  truth_.assign(truth0.begin(), truth0.end());
}

void SyntheticStream::produce(int cycle) {
  TURBDA_REQUIRE(cycle == produced_, "SyntheticStream: produce() must be called in cycle order");

  // Nature run: same call sequence as the offline OSSE's truth forecast.
  truth_model_.forecast(truth_);

  // Observation values — substream keyed by cycle, so the numbers are
  // independent of the delivery schedule and of collection order.
  ObsBatch b;
  b.cycle = cycle;
  b.valid_cycles = static_cast<double>(cycle + 1);
  b.y.resize(h_.obs_dim());
  h_.apply(truth_, b.y);
  rng::Rng r_obs = rng_obs_.substream(static_cast<std::uint64_t>(cycle));
  r_.perturb(b.y, r_obs);

  // Delivery schedule — its own substream family, so turning latency/jitter
  // on or off never shifts the observation noise above.
  rng::Rng r_del = rng_delivery_.substream(static_cast<std::uint64_t>(cycle));
  const bool dropped = r_del.bernoulli(cfg_.dropout_prob);
  const double jitter = cfg_.jitter_cycles > 0.0 ? cfg_.jitter_cycles * r_del.uniform() : 0.0;
  b.arrival_cycles = b.valid_cycles + cfg_.latency_cycles + jitter;

  std::lock_guard<std::mutex> lk(mu_);
  ring_.add(cycle, truth_);
  ring_.keep_from(cycle - cfg_.truth_buffer + 1);
  ++produced_;
  if (!dropped) pending_.push(std::move(b));
}

void SyntheticStream::collect(double now_cycles, std::vector<ObsBatch>& out) {
  std::lock_guard<std::mutex> lk(mu_);
  pending_.collect(now_cycles, out);
}

bool SyntheticStream::save_state(std::vector<std::uint8_t>& out) const {
  std::lock_guard<std::mutex> lk(mu_);
  bytes::put_f64_span(out, truth_);
  bytes::put_i32(out, produced_);
  pending_.save(out);
  ring_.save(out);
  return true;
}

bool SyntheticStream::restore_state(std::span<const std::uint8_t> in) {
  bytes::Reader rd(in);
  std::vector<double> truth;
  if (!rd.f64_vec(truth) || truth.size() != truth_model_.dim()) return false;
  const int produced = rd.i32();
  BatchQueue pending;
  TruthRing ring;
  if (!pending.restore(rd, h_.obs_dim(), h_.obs_dim()) ||
      !ring.restore(rd, truth_model_.dim(), truth_model_.dim()) || !rd.done() || produced < 0)
    return false;
  std::lock_guard<std::mutex> lk(mu_);
  truth_ = std::move(truth);
  produced_ = produced;
  pending_ = std::move(pending);
  ring_ = std::move(ring);
  return true;
}

std::span<const double> SyntheticStream::truth(int cycle) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double>* state = ring_.find(cycle);
  return state != nullptr ? std::span<const double>(*state) : std::span<const double>();
}

}  // namespace turbda::stream
