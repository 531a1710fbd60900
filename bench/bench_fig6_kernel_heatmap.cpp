// Fig. 6 on this host. The paper sweeps the ViT surrogate's architecture
// (embedding dim x heads x MLP ratio) on one Frontier MI250X GCD and reports
// 20-52 TFLOPS. This bench times the same kind of sweep on this CPU's GEMM
// (tensor::gemm, all threads): the six forward GEMMs of one ViT block at a
// 64^2 input, patch 4, MLP ratio 4 and batch 1, for embed {128, 256} x heads
// {4, 16}, in GFLOPS.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/timer.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "nn/vit.hpp"
#include "tensor/gemm.hpp"

using namespace turbda;

namespace {

constexpr int kTimedCalls = 5;

/// One (m x k) * (k x n) GEMM, run `count` times per block.
struct GemmShape {
  std::size_t m, n, k;
  double count;
};

/// The forward GEMMs of one ViT block at batch 1.
std::vector<GemmShape> vit_block_gemms(const nn::VitConfig& cfg) {
  const std::size_t t = cfg.tokens();
  const std::size_t e = cfg.embed_dim;
  const std::size_t dh = e / cfg.heads;
  const std::size_t hidden = cfg.mlp_hidden();
  const double heads = static_cast<double>(cfg.heads);
  return {
      {t, 3 * e, e, 1.0},   // fused QKV projection
      {t, t, dh, heads},    // attention scores Q K^T, per head
      {t, dh, t, heads},    // context A V, per head
      {t, e, e, 1.0},       // output projection
      {t, hidden, e, 1.0},  // MLP up
      {t, e, hidden, 1.0},  // MLP down
  };
}

/// GFLOPS of this host's GEMM over one ViT block: per shape, one untimed
/// warm-up call, then the best of kTimedCalls timed calls.
double measured_block_gflops(const nn::VitConfig& cfg) {
  double flops = 0.0, secs = 0.0;
  for (const GemmShape& g : vit_block_gemms(cfg)) {
    tensor::Tensor a({g.m, g.k}), b({g.k, g.n}), c({g.m, g.n});
    a.fill(1.0);
    b.fill(0.5);
    const auto call = [&] {
      tensor::gemm(tensor::Trans::No, tensor::Trans::No, g.m, g.n, g.k, 1.0, a.data(), g.k,
                   b.data(), g.n, c.data(), g.n);
    };
    call();
    double best = 1e300;
    for (int r = 0; r < kTimedCalls; ++r) {
      WallTimer t;
      call();
      best = std::min(best, t.seconds());
    }
    secs += g.count * best;
    flops += g.count * 2.0 * static_cast<double>(g.m) * static_cast<double>(g.n) *
             static_cast<double>(g.k);
  }
  return flops / secs / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.flag("help")) {
    std::cout << "bench_fig6_kernel_heatmap: Fig. 6's ViT block GEMMs timed on this host's CPU\n"
                 "(64^2 input, patch 4, MLP ratio 4, batch 1; embed {128, 256} x heads {4, 16};\n"
                 "per shape one warm-up call, then the best of "
              << kTimedCalls << " timed calls). Takes no flags.\n";
    return 0;
  }
  std::cout << "=== Fig. 6 on this host: GFLOPS of one ViT block's forward GEMMs (tensor::gemm;\n"
               "64^2 input, patch 4, batch 1; per shape one warm-up call, then the best of "
            << kTimedCalls << " timed calls) ===\n";
  io::Table t({"embed dim", "heads", "mlp ratio", "GFLOPS"});
  for (std::size_t e : {128u, 256u}) {
    for (std::size_t h : {4u, 16u}) {
      nn::VitConfig v;
      v.image = 64;
      v.patch = 4;
      v.embed_dim = e;
      v.heads = h;
      v.mlp_ratio = 4.0;
      t.add_row({std::to_string(e), std::to_string(h), "4",
                 io::Table::num(measured_block_gflops(v), 2)});
    }
  }
  t.print();
  return 0;
}
