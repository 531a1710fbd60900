#include "stream/faulty_stream.hpp"

#include <limits>

#include "common/bytes.hpp"
#include "common/check.hpp"

namespace turbda::stream {

FaultyStream::FaultyStream(FaultConfig cfg, ObservationStream& inner)
    : cfg_(cfg), inner_(inner), rng_fault_(rng::Rng(cfg.seed).substream(7)) {
  const auto is_prob = [](double v) { return v >= 0.0 && v <= 1.0; };
  TURBDA_REQUIRE(is_prob(cfg_.nan_prob) && is_prob(cfg_.inf_prob) && is_prob(cfg_.outlier_prob) &&
                     is_prob(cfg_.stuck_prob) && is_prob(cfg_.duplicate_prob) &&
                     is_prob(cfg_.truncate_prob),
                 "FaultyStream: probabilities must be in [0,1]");
  TURBDA_REQUIRE(cfg_.nan_prob + cfg_.inf_prob + cfg_.outlier_prob <= 1.0,
                 "FaultyStream: per-element probabilities must sum to <= 1");
  TURBDA_REQUIRE(cfg_.stuck_cycles >= 1, "FaultyStream: stuck_cycles must be >= 1");
  TURBDA_REQUIRE(cfg_.duplicate_delay_cycles >= 0.0,
                 "FaultyStream: duplicate delay must be >= 0");
}

void FaultyStream::produce(int cycle) {
  inner_.produce(cycle);
  // Disabled decorator: leave the batches where they are so collect() and
  // checkpointing stay bitwise identical to the undecorated stream.
  if (disabled()) return;
  // Take over every batch the inner stream has queued (arrival stamps
  // intact, however far in the future) so corruption happens exactly once,
  // in produce order, regardless of when the driver polls collect().
  std::vector<ObsBatch> fresh;
  inner_.collect(std::numeric_limits<double>::infinity(), fresh);
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ObsBatch> extra;
  for (ObsBatch& b : fresh) {
    corrupt(b, extra);
    pending_.push(std::move(b));
  }
  for (ObsBatch& b : extra) pending_.push(std::move(b));
}

void FaultyStream::corrupt(ObsBatch& b, std::vector<ObsBatch>& extra) {
  // One substream per window: the fault pattern of batch k is a pure
  // function of (seed, config, k).
  rng::Rng rg = rng_fault_.substream(static_cast<std::uint64_t>(b.cycle));
  const std::size_t p = b.y.size();

  // Frozen channels emit their held value; each produce ticks them down.
  for (auto it = stuck_.begin(); it != stuck_.end();) {
    const auto ch = static_cast<std::size_t>(it->first);
    if (ch < p) {
      b.y[ch] = it->second.second;
      ++counters_.stuck_values;
    }
    if (--it->second.first <= 0)
      it = stuck_.erase(it);
    else
      ++it;
  }
  if (cfg_.stuck_prob > 0.0 && p > 0 && rg.bernoulli(cfg_.stuck_prob)) {
    const auto ch = static_cast<std::int32_t>(rg.uniform_int(p));
    stuck_[ch] = {cfg_.stuck_cycles, b.y[static_cast<std::size_t>(ch)]};
  }

  if (cfg_.nan_prob + cfg_.inf_prob + cfg_.outlier_prob > 0.0) {
    for (std::size_t i = 0; i < p; ++i) {
      const double u = rg.uniform();
      if (u < cfg_.nan_prob) {
        b.y[i] = std::numeric_limits<double>::quiet_NaN();
        ++counters_.nan_values;
      } else if (u < cfg_.nan_prob + cfg_.inf_prob) {
        b.y[i] = (i % 2 == 0) ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
        ++counters_.inf_values;
      } else if (u < cfg_.nan_prob + cfg_.inf_prob + cfg_.outlier_prob) {
        b.y[i] = (b.y[i] + 1.0) * cfg_.outlier_scale;
        ++counters_.outlier_values;
      }
    }
  }

  // The duplicate is a second transmission of the (corrupted) batch; it is
  // taken before truncation, so a truncated original can still be recovered
  // from its delayed copy — and the driver's duplicate guard must reject the
  // copy when the original was applied.
  if (cfg_.duplicate_prob > 0.0 && rg.bernoulli(cfg_.duplicate_prob)) {
    ObsBatch copy = b;
    copy.arrival_cycles += cfg_.duplicate_delay_cycles;
    extra.push_back(std::move(copy));
    ++counters_.batches_duplicated;
  }
  if (cfg_.truncate_prob > 0.0 && p > 1 && rg.bernoulli(cfg_.truncate_prob)) {
    b.y.resize(p / 2);
    ++counters_.batches_truncated;
  }
}

void FaultyStream::collect(double now_cycles, std::vector<ObsBatch>& out) {
  if (disabled()) {
    inner_.collect(now_cycles, out);
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  pending_.collect(now_cycles, out);
}

FaultCounters FaultyStream::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

bool FaultyStream::save_state(std::vector<std::uint8_t>& out) const {
  if (disabled()) return inner_.save_state(out);
  std::vector<std::uint8_t> inner_blob;
  if (!inner_.save_state(inner_blob)) return false;
  std::lock_guard<std::mutex> lk(mu_);
  pending_.save(out);
  bytes::put_u64(out, stuck_.size());
  for (const auto& [ch, st] : stuck_) {
    bytes::put_i32(out, ch);
    bytes::put_i32(out, st.first);
    bytes::put_f64(out, st.second);
  }
  bytes::put_u64(out, counters_.nan_values);
  bytes::put_u64(out, counters_.inf_values);
  bytes::put_u64(out, counters_.outlier_values);
  bytes::put_u64(out, counters_.stuck_values);
  bytes::put_u64(out, counters_.batches_duplicated);
  bytes::put_u64(out, counters_.batches_truncated);
  bytes::put_blob(out, inner_blob);
  return true;
}

bool FaultyStream::restore_state(std::span<const std::uint8_t> in) {
  if (disabled()) return inner_.restore_state(in);
  bytes::Reader rd(in);
  BatchQueue pending;
  // Truncated batches legitimately carry fewer than obs_dim values.
  if (!pending.restore(rd, 0, inner_.obs_dim())) return false;
  const std::uint64_t n_stuck = rd.u64();
  std::map<std::int32_t, std::pair<std::int32_t, double>> stuck;
  for (std::uint64_t i = 0; i < n_stuck && rd.ok(); ++i) {
    const std::int32_t ch = rd.i32();
    const std::int32_t rem = rd.i32();
    const double val = rd.f64();
    // save_state writes each channel once, in increasing order, and only
    // channels of the observation vector.
    const bool in_order = stuck.empty() || ch > stuck.rbegin()->first;
    if (rem < 1 || !in_order || ch < 0 || static_cast<std::size_t>(ch) >= inner_.obs_dim())
      return false;
    stuck.emplace_hint(stuck.end(), ch, std::pair{rem, val});
  }
  FaultCounters ctr;
  ctr.nan_values = rd.u64();
  ctr.inf_values = rd.u64();
  ctr.outlier_values = rd.u64();
  ctr.stuck_values = rd.u64();
  ctr.batches_duplicated = rd.u64();
  ctr.batches_truncated = rd.u64();
  std::vector<std::uint8_t> inner_blob;
  if (!rd.blob(inner_blob) || !rd.done()) return false;
  if (!inner_.restore_state(inner_blob)) return false;
  std::lock_guard<std::mutex> lk(mu_);
  pending_ = std::move(pending);
  stuck_ = std::move(stuck);
  counters_ = ctr;
  return true;
}

}  // namespace turbda::stream
