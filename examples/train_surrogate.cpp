// Train the ViT surrogate of the SQG dynamics offline, then adapt it online
// from analysis states — the paper's real-time training loop (§III-B) at
// laptop scale.
//
//   build/examples/train_surrogate [--epochs=25] [--pairs=96]
#include <iostream>

#include "bench/sqg_experiment.hpp"
#include "io/args.hpp"
#include "io/table.hpp"

using namespace turbda;

constexpr char kUsage[] =
    "train_surrogate: offline-pretrain the SQG-ViT surrogate, then probe skill\n"
    "  --epochs=<int>  pretraining epochs (default 25)\n"
    "  --pairs=<int>   transition pairs in the training set (default 96)\n"
    "  --seed=<int>    experiment seed (default 2024)\n"
    "(GEMM-bound layers use all hardware threads via the process-wide pool.)\n";

int main(int argc, char** argv) {
  const io::Args args(argc, argv, kUsage);
  bench::SqgExperimentConfig cfg;
  cfg.n = 32;
  cfg.cycles = 12;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  cfg.vit_pretrain_epochs = static_cast<int>(args.get_int("epochs", 25));
  cfg.vit_pretrain_pairs = static_cast<int>(args.get_int("pairs", 96));

  std::cout << "Offline pretraining of the SQG-ViT surrogate (" << cfg.vit_pretrain_pairs
            << " transition pairs, " << cfg.vit_pretrain_epochs << " epochs)\n";
  bench::SqgExperiment exp(cfg);
  std::vector<double> losses;
  auto surrogate = exp.train_surrogate(&losses);

  io::Table t({"epoch", "MSE (normalized)"});
  for (std::size_t e = 0; e < losses.size(); e += std::max<std::size_t>(1, losses.size() / 10))
    t.add_row({std::to_string(e), io::Table::sci(losses[e], 3)});
  t.add_row({std::to_string(losses.size() - 1), io::Table::sci(losses.back(), 3)});
  t.print();

  // One-step skill: surrogate vs persistence on a fresh trajectory.
  std::vector<double> state = exp.truth0_raw;
  const double window_s = cfg.window_hours * 3600.0;
  double err_sur = 0.0, err_per = 0.0;
  const int probes = 10;
  for (int p = 0; p < probes; ++p) {
    std::vector<double> cur_k(exp.model->dim());
    for (std::size_t i = 0; i < cur_k.size(); ++i) cur_k[i] = state[i] * exp.kelvin;
    exp.model->advance(state, window_s);
    std::vector<double> next_k(exp.model->dim());
    for (std::size_t i = 0; i < next_k.size(); ++i) next_k[i] = state[i] * exp.kelvin;

    std::vector<double> pred = cur_k;
    surrogate->forecast(pred);
    err_sur += da::rmse(pred, next_k);
    err_per += da::rmse(cur_k, next_k);
  }
  std::cout << "\nOne-step (12 h) forecast RMSE over " << probes << " windows:\n"
            << "  ViT surrogate: " << io::Table::num(err_sur / probes, 3) << " K\n"
            << "  persistence:   " << io::Table::num(err_per / probes, 3) << " K\n";

  // Online adaptation: fine-tune the pretrained surrogate itself on
  // analysis-like transitions and watch the loss.
  std::cout << "\nOnline fine-tuning from streamed transitions (the paper's real-time "
               "adaptation):\n";
  nn::OnlineTrainer online(surrogate->vit(), surrogate->scaler(), nn::AdamWConfig{.lr = 1e-3},
                           32, 2);
  rng::Rng orng(99);
  std::vector<double> prev_k(exp.model->dim()), next_k(exp.model->dim());
  for (std::size_t i = 0; i < prev_k.size(); ++i) prev_k[i] = state[i] * exp.kelvin;
  io::Table ot({"cycle", "online loss"});
  for (int k = 0; k < 10; ++k) {
    exp.model->advance(state, window_s);
    for (std::size_t i = 0; i < next_k.size(); ++i) next_k[i] = state[i] * exp.kelvin;
    const auto st = online.observe_transition(prev_k, next_k, orng);
    ot.add_row({std::to_string(k), io::Table::sci(st.loss, 3)});
    prev_k = next_k;
  }
  ot.print();
  return 0;
}
