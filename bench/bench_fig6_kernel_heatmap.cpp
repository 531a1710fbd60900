// Fig. 6 reproduction: compute-performance heatmap of the ViT surrogate
// architecture sweep (embedding dim x heads x MLP ratio) on a single
// Frontier GCD — from the calibrated MI250X GEMM model — plus a measured
// sweep of this host's CPU GEMM on the same (scaled) shapes.
#include <algorithm>
#include <iostream>

#include "common/timer.hpp"
#include "hpc/gemm_model.hpp"
#include "hpc/vit_arch.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "tensor/gemm.hpp"

using namespace turbda;

namespace {

constexpr int kTimedCalls = 5;

/// Measured GFLOPS of this host's GEMM for one ViT layer's shapes,
/// scaled down by `shrink` to stay CPU-friendly: per shape, one untimed
/// warm-up call, then the best of kTimedCalls timed calls.
double measured_layer_gflops(const nn::VitConfig& cfg, std::size_t shrink) {
  double flops = 0.0, secs = 0.0;
  for (const auto& g : hpc::GemmModel::vit_block_gemms(cfg, 1)) {
    const std::size_t m = std::max<std::size_t>(8, g.m / shrink);
    const std::size_t n = std::max<std::size_t>(8, g.n / shrink);
    const std::size_t k = std::max<std::size_t>(8, g.k / shrink);
    tensor::Tensor a({m, k}), b({k, n}), c({m, n});
    a.fill(1.0);
    b.fill(0.5);
    const auto call = [&] {
      tensor::gemm(tensor::Trans::No, tensor::Trans::No, m, n, k, 1.0, a.data(), k, b.data(), n,
                   c.data(), n);
    };
    call();
    double best = 1e300;
    for (int r = 0; r < kTimedCalls; ++r) {
      WallTimer t;
      call();
      best = std::min(best, t.seconds());
    }
    secs += g.count * best;
    flops += g.count * 2.0 * static_cast<double>(m) * static_cast<double>(n) *
             static_cast<double>(k);
  }
  return flops / secs / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.flag("help")) {
    std::cout << "bench_fig6_kernel_heatmap: Fig. 6 ViT architecture TFLOPS heatmap (MI250X\n"
                 "model), then a measured sweep of this host's GEMM on shrunk shapes\n"
                 "(per shape: one warm-up call, then the best of "
              << kTimedCalls << " timed calls)\n"
                 "  --no-measure     print only the model heatmap\n";
    return 0;
  }
  std::cout << "=== Fig. 6: TFLOPS heatmap for the ViT surrogate architecture (256^2 input, "
               "single GCD, MI250X model) ===\n";
  hpc::GemmModel model;
  nn::VitConfig base = hpc::table2_architectures()[2];

  io::Table t({"embed dim", "heads", "mlp=2", "mlp=4", "mlp=8"});
  for (std::size_t e : {1024u, 2048u}) {
    for (std::size_t h : {8u, 16u, 32u}) {
      std::vector<std::string> row{std::to_string(e), std::to_string(h)};
      for (double r : {2.0, 4.0, 8.0}) {
        nn::VitConfig v = base;
        v.embed_dim = e;
        v.heads = h;
        v.mlp_ratio = r;
        row.push_back(io::Table::num(model.vit_training_tflops(v, 8), 1));
      }
      t.add_row(row);
    }
  }
  t.print();
  std::cout << "Paper shape checks: best cell at embed 2048 / few heads / heavy MLP;\n"
               "performance decreases with head count and increases with MLP weight;\n"
               "sweep spans roughly the observed 20-52 TFLOPS band.\n";

  if (!args.flag("no-measure")) {
    std::cout << "\nMeasured on this host (CPU GEMM, shapes shrunk 8x; per shape one warm-up "
                 "call, then the best of "
              << kTimedCalls << " timed calls):\n";
    io::Table m({"embed dim", "heads", "mlp ratio", "GFLOPS"});
    for (std::size_t e : {128u, 256u}) {
      for (std::size_t h : {4u, 16u}) {
        nn::VitConfig v = base;
        v.image = 64;
        v.embed_dim = e;
        v.heads = h;
        v.mlp_ratio = 4.0;
        m.add_row({std::to_string(e), std::to_string(h), "4",
                   io::Table::num(measured_layer_gflops(v, 1), 2)});
      }
    }
    m.print();
  }
  return 0;
}
