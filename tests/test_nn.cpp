#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "fnv1a.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "nn/surrogate.hpp"
#include "nn/vit.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"

namespace turbda::nn {
namespace {

using turbda::rng::Rng;

Tensor random_tensor(std::initializer_list<std::size_t> shape, Rng& rng, double sd = 1.0) {
  Tensor t(shape);
  rng.fill_gaussian(t.flat(), 0.0, sd);
  return t;
}

/// Scalar loss L = sum(c .* f(x)) used for finite-difference grad checks.
double probe_loss(Module& m, const Tensor& x, const Tensor& c) {
  Tensor y = m.forward(x);
  double s = 0.0;
  const auto yf = y.flat();
  const auto cf = c.flat();
  for (std::size_t i = 0; i < yf.size(); ++i) s += cf[i] * yf[i];
  return s;
}

/// Checks both input gradient and every parameter gradient of a module by
/// central finite differences.
void grad_check(Module& m, const Tensor& x, double tol = 1e-6, double eps = 1e-5) {
  Rng crng(999);
  Tensor y0 = m.forward(x);
  Tensor c(y0.shape());
  crng.fill_gaussian(c.flat());

  std::vector<Param*> params;
  m.collect_params(params);
  for (Param* p : params) p->zero_grad();
  m.forward(x);  // refresh caches
  const Tensor dx = m.backward(c);

  // Input gradient.
  Tensor xp = x;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = xp.flat()[i];
    xp.flat()[i] = orig + eps;
    const double lp = probe_loss(m, xp, c);
    xp.flat()[i] = orig - eps;
    const double lm = probe_loss(m, xp, c);
    xp.flat()[i] = orig;
    const double fd = (lp - lm) / (2.0 * eps);
    ASSERT_NEAR(dx.flat()[i], fd, tol * (1.0 + std::abs(fd))) << "input grad, index " << i;
  }

  // Parameter gradients (probe a subset for large params).
  for (Param* p : params) {
    auto w = p->value.flat();
    const std::size_t stride = std::max<std::size_t>(1, w.size() / 16);
    for (std::size_t i = 0; i < w.size(); i += stride) {
      const double orig = w[i];
      w[i] = orig + eps;
      const double lp = probe_loss(m, x, c);
      w[i] = orig - eps;
      const double lm = probe_loss(m, x, c);
      w[i] = orig;
      const double fd = (lp - lm) / (2.0 * eps);
      ASSERT_NEAR(p->grad.flat()[i], fd, tol * (1.0 + std::abs(fd)))
          << "param " << p->name << ", index " << i;
    }
  }
}

TEST(Linear, ForwardMatchesManual) {
  Rng rng(1);
  Linear lin(3, 2, rng);
  lin.weight.value.fill(0.0);
  lin.weight.value(0, 0) = 1.0;
  lin.weight.value(2, 1) = 2.0;
  lin.bias.value(0) = 0.5;
  Tensor x({1, 3});
  x(0, 0) = 3.0;
  x(0, 2) = 4.0;
  const Tensor y = lin.forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 8.0);
}

TEST(Linear, GradCheck) {
  Rng rng(2);
  Linear lin(5, 4, rng);
  const Tensor x = random_tensor({3, 5}, rng);
  grad_check(lin, x);
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(3);
  LayerNorm ln(16);
  const Tensor x = random_tensor({4, 16}, rng, 3.0);
  const Tensor y = ln.forward(x);
  for (std::size_t r = 0; r < 4; ++r) {
    double mu = 0.0, var = 0.0;
    for (double v : y.row(r)) mu += v;
    mu /= 16.0;
    for (double v : y.row(r)) var += (v - mu) * (v - mu);
    var /= 16.0;
    EXPECT_NEAR(mu, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GradCheck) {
  Rng rng(4);
  LayerNorm ln(8);
  // Nontrivial gain/bias so their grads are exercised.
  rng.fill_gaussian(ln.gain.value.flat(), 1.0, 0.3);
  rng.fill_gaussian(ln.bias.value.flat(), 0.0, 0.3);
  const Tensor x = random_tensor({5, 8}, rng);
  grad_check(ln, x, 1e-5);
}

TEST(Gelu, KnownValues) {
  Gelu g;
  Tensor x({1, 3});
  x(0, 0) = 0.0;
  x(0, 1) = 10.0;
  x(0, 2) = -10.0;
  const Tensor y = g.forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_NEAR(y(0, 1), 10.0, 1e-6);
  EXPECT_NEAR(y(0, 2), 0.0, 1e-6);
}

TEST(Gelu, GradCheck) {
  Rng rng(5);
  Gelu g;
  const Tensor x = random_tensor({4, 6}, rng);
  grad_check(g, x);
}

TEST(Attention, GradCheck) {
  Rng rng(10);
  MultiHeadSelfAttention attn(8, 2, 3, &rng);
  const Tensor x = random_tensor({2 * 3, 8}, rng);  // B=2, T=3
  grad_check(attn, x, 1e-5);
}

TEST(Attention, TokenPermutationEquivariance) {
  // Self-attention without positional encoding commutes with token
  // permutations within a sample.
  Rng rng(11);
  const std::size_t t = 4, c = 8;
  MultiHeadSelfAttention attn(c, 2, t, &rng);
  const Tensor x = random_tensor({t, c}, rng);
  const Tensor y = attn.forward(x);
  // Swap tokens 1 and 2.
  Tensor xp = x;
  for (std::size_t j = 0; j < c; ++j) std::swap(xp(1, j), xp(2, j));
  const Tensor yp = attn.forward(xp);
  for (std::size_t j = 0; j < c; ++j) {
    EXPECT_NEAR(yp(1, j), y(2, j), 1e-10);
    EXPECT_NEAR(yp(2, j), y(1, j), 1e-10);
    EXPECT_NEAR(yp(0, j), y(0, j), 1e-10);
  }
}

TEST(Mlp, GradCheck) {
  Rng rng(12);
  Mlp mlp(6, 12, &rng, "mlp");
  const Tensor x = random_tensor({4, 6}, rng);
  grad_check(mlp, x, 1e-5);
}

TEST(TransformerBlock, GradCheck) {
  Rng rng(13);
  VitConfig cfg;
  cfg.image = 8;
  cfg.patch = 4;
  cfg.embed_dim = 8;
  cfg.heads = 2;
  cfg.depth = 1;
  TransformerBlock blk(cfg, &rng, "blk");
  const Tensor x = random_tensor({2 * cfg.tokens(), cfg.embed_dim}, rng);
  grad_check(blk, x, 1e-5);
}

TEST(PatchEmbed, PatchifyRoundTrip) {
  Rng rng(14);
  VitConfig cfg;
  cfg.image = 8;
  cfg.patch = 2;
  cfg.channels = 2;
  PatchEmbed pe(cfg, &rng);
  const Tensor x = random_tensor({3, cfg.state_dim()}, rng);
  const Tensor p = pe.patchify(x);
  EXPECT_EQ(p.extent(0), 3 * cfg.tokens());
  EXPECT_EQ(p.extent(1), cfg.patch_dim());
  const Tensor back = pe.unpatchify(p, 3);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(back.flat()[i], x.flat()[i]);
}

TEST(ViT, InitialModelIsIdentity) {
  // Zero-initialized head makes the untrained surrogate the identity map —
  // the right prior for one-step dynamics.
  VitConfig cfg;
  cfg.image = 16;
  cfg.patch = 4;
  cfg.embed_dim = 16;
  cfg.heads = 4;
  cfg.depth = 2;
  ViT vit(cfg);
  Rng rng(15);
  const Tensor x = random_tensor({2, cfg.state_dim()}, rng);
  const Tensor y = vit.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y.flat()[i], x.flat()[i], 1e-12);
}

TEST(ViT, GradCheckTiny) {
  VitConfig cfg;
  cfg.image = 8;
  cfg.patch = 4;
  cfg.embed_dim = 8;
  cfg.heads = 2;
  cfg.depth = 1;
  ViT vit(cfg);
  // Give the head nonzero weights so its grad path is exercised.
  Rng rng(16);
  init_trunc_normal(vit.parameters().back()->value, 0.1, rng);  // head bias? ensure nontrivial
  for (Param* p : vit.parameters())
    if (p->name == "head.weight") init_trunc_normal(p->value, 0.1, rng);
  const Tensor x = random_tensor({2, cfg.state_dim()}, rng);
  grad_check(vit, x, 2e-5);
}

TEST(ViT, ParamCountMatchesInstantiated) {
  VitConfig cfg;
  cfg.image = 16;
  cfg.patch = 4;
  cfg.embed_dim = 24;
  cfg.heads = 4;
  cfg.depth = 3;
  cfg.mlp_ratio = 4.0;
  ViT vit(cfg);
  EXPECT_EQ(vit.num_params(), cfg.param_count());
}

TEST(ViT, TableIIParameterCounts) {
  // Table II of the paper: 157M / 1.2B / 2.5B parameters.
  VitConfig small;
  small.image = 64;
  small.patch = 4;
  small.depth = 12;
  small.heads = 8;
  small.embed_dim = 1024;
  small.mlp_ratio = 4.0;
  EXPECT_NEAR(static_cast<double>(small.param_count()), 157e6, 10e6);

  VitConfig mid = small;
  mid.image = 128;
  mid.depth = 24;
  mid.embed_dim = 2048;
  EXPECT_NEAR(static_cast<double>(mid.param_count()), 1.2e9, 0.05e9);

  VitConfig large = mid;
  large.image = 256;
  large.depth = 48;
  EXPECT_NEAR(static_cast<double>(large.param_count()), 2.5e9, 0.1e9);
}

TEST(ViT, StateVectorRoundTrip) {
  VitConfig cfg;
  cfg.image = 8;
  cfg.patch = 4;
  cfg.embed_dim = 8;
  cfg.heads = 2;
  cfg.depth = 1;
  cfg.seed = 7;
  ViT a(cfg);
  const auto sv = a.state_vector();
  VitConfig cfg2 = cfg;
  cfg2.seed = 8;  // different init
  ViT b(cfg2);
  b.load_state_vector(sv);
  Rng rng(17);
  const Tensor x = random_tensor({1, cfg.state_dim()}, rng);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya.flat()[i], yb.flat()[i]);
}

TEST(ViT, DeterministicGivenSeed) {
  VitConfig cfg;
  cfg.image = 8;
  cfg.patch = 2;
  cfg.embed_dim = 8;
  cfg.heads = 2;
  cfg.depth = 2;
  cfg.seed = 123;
  ViT a(cfg), b(cfg);
  const auto sa = a.state_vector();
  const auto sb = b.state_vector();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_DOUBLE_EQ(sa[i], sb[i]);
}

TEST(ViT, SameBitsAtEverySimdLevel) {
  // nn's products run on the dispatched matmul_rows kernel, which has no FMA
  // variant, so one forward, backward and AdamW step on fixed inputs must
  // give the same output and parameter bits at every SIMD level. The shapes
  // put the MLP products above gemm's row-partition threshold. The bits are
  // also pinned to a constant recorded before the regularizers (dropout,
  // stochastic depth, attention dropout) were removed, with their rates at 0:
  // at rate 0 each returned its input and drew nothing from the RNG. An FMA
  // build (TURBDA_NATIVE) may contract the layers' own multiply-adds, so
  // there the levels agree with each other but not with the constant.
  VitConfig cfg;
  cfg.image = 32;
  cfg.patch = 4;
  cfg.embed_dim = 32;
  cfg.heads = 4;
  cfg.depth = 2;
  cfg.seed = 31;
  Rng rng(32);
  const Tensor x = random_tensor({4, cfg.state_dim()}, rng);
  const Tensor target = random_tensor({4, cfg.state_dim()}, rng);
  const auto step = [&] {
    ViT vit(cfg);
    Rng hr(33);
    for (Param* p : vit.parameters())
      if (p->name == "head.weight") init_trunc_normal(p->value, 0.1, hr);
    AdamW opt(vit.parameters(), AdamWConfig{.lr = 1e-2, .weight_decay = 0.05});
    opt.zero_grad();
    const Tensor y = vit.forward(x);
    Tensor grad;
    mse_loss(y, target, grad);
    vit.backward(grad);
    opt.step();
    std::vector<double> bits(y.flat().begin(), y.flat().end());
    const std::vector<double> params = vit.state_vector();
    bits.insert(bits.end(), params.begin(), params.end());
    return bits;
  };
  const simd::SimdLevel orig = simd::active_simd_level();
  std::vector<double> ref;
  for (simd::SimdLevel lv :
       {simd::SimdLevel::Scalar, simd::SimdLevel::Avx2, simd::SimdLevel::Avx2Fma}) {
    if (!simd::force_simd_level(lv)) continue;
    const std::vector<double> got = step();
    if (ref.empty()) {
      ref = got;
      continue;
    }
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), got.size() * sizeof(double)))
        << simd::simd_level_name(lv) << " differs from scalar";
  }
  simd::force_simd_level(orig);
#if !defined(__FMA__)
  EXPECT_EQ(Fnv1a().add(ref).value(), 0xe7cd9efd0cfbb8f8ull);
#endif
}

TEST(AdamW, MinimizesQuadratic) {
  // One Param treated as a free vector: minimize ||w - target||^2.
  Param w("w");
  w.reset_shape({8});
  Rng rng(18);
  rng.fill_gaussian(w.value.flat());
  std::vector<double> target(8);
  rng.fill_gaussian(target);
  AdamWConfig cfg;
  cfg.lr = 0.05;
  AdamW opt({&w}, cfg);
  for (int it = 0; it < 500; ++it) {
    opt.zero_grad();
    for (std::size_t i = 0; i < 8; ++i) w.grad(i) = 2.0 * (w.value(i) - target[i]);
    opt.step();
  }
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(w.value(i), target[i], 1e-3);
}

TEST(AdamW, WeightDecayShrinks) {
  Param w("w");
  w.reset_shape({4});
  w.value.fill(1.0);
  AdamWConfig cfg;
  cfg.lr = 0.01;
  cfg.weight_decay = 0.1;
  AdamW opt({&w}, cfg);
  for (int it = 0; it < 100; ++it) {
    opt.zero_grad();  // zero gradient: only decay acts
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_LT(w.value(i), 1.0);
}

TEST(Optim, ClipGradNorm) {
  Param w("w");
  w.reset_shape({3});
  w.grad(0) = 3.0;
  w.grad(1) = 4.0;
  std::vector<Param*> ps{&w};
  const double pre = clip_grad_norm(ps, 1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(std::hypot(w.grad(0), w.grad(1)), 1.0, 1e-12);
}

TEST(Optim, WarmupCosineShape) {
  const double base = 1.0;
  EXPECT_LT(warmup_cosine_lr(base, 0, 10, 100), 0.2);
  EXPECT_NEAR(warmup_cosine_lr(base, 9, 10, 100), 1.0, 1e-9);
  EXPECT_GT(warmup_cosine_lr(base, 20, 10, 100), warmup_cosine_lr(base, 80, 10, 100));
  EXPECT_NEAR(warmup_cosine_lr(base, 100, 10, 100), 0.0, 1e-9);
}

TEST(Loss, MseValueAndGrad) {
  Tensor pred({1, 2}), target({1, 2});
  pred(0, 0) = 1.0;
  pred(0, 1) = 3.0;
  target(0, 0) = 0.0;
  target(0, 1) = 1.0;
  Tensor grad;
  const double loss = mse_loss(pred, target, grad);
  EXPECT_DOUBLE_EQ(loss, (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(grad(0, 0), 1.0);   // 2*(1-0)/2
  EXPECT_DOUBLE_EQ(grad(0, 1), 2.0);   // 2*(3-1)/2
}

TEST(FieldScaler, RoundTrip) {
  Rng rng(19);
  Tensor states({10, 50});
  rng.fill_gaussian(states.flat(), 5.0, 3.0);
  FieldScaler sc;
  sc.fit(states);
  EXPECT_NEAR(sc.mean(), 5.0, 0.3);
  EXPECT_NEAR(sc.std_dev(), 3.0, 0.3);
  std::vector<double> v{1.0, 2.0, 3.0};
  auto w = v;
  sc.normalize(w);
  sc.denormalize(w);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(w[i], v[i], 1e-12);
}

TEST(Surrogate, LearnsLinearShiftDynamics) {
  // Dynamics: next = roll(state) (circular shift by one pixel). A small ViT
  // should reduce its one-step MSE substantially after training.
  VitConfig cfg;
  cfg.image = 8;
  cfg.patch = 2;
  cfg.channels = 2;
  cfg.embed_dim = 16;
  cfg.heads = 2;
  cfg.depth = 2;
  cfg.seed = 21;
  auto vit = std::make_shared<ViT>(cfg);
  const std::size_t d = cfg.state_dim(), n = cfg.image;

  Rng rng(22);
  const std::size_t samples = 64;
  Tensor xs({samples, d}), ys({samples, d});
  for (std::size_t s = 0; s < samples; ++s) {
    rng.fill_gaussian(xs.row(s));
    // roll each level by one column
    for (std::size_t ch = 0; ch < 2; ++ch)
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c2 = 0; c2 < n; ++c2)
          ys.row(s)[ch * n * n + r * n + c2] = xs.row(s)[ch * n * n + r * n + (c2 + 1) % n];
  }
  FieldScaler sc;
  sc.fit(xs);
  SurrogateTrainer trainer(vit, sc, AdamWConfig{.lr = 3e-3});
  const auto losses = trainer.fit(xs, ys, /*epochs=*/30, /*batch=*/16, 3e-3, rng);
  EXPECT_LT(losses.back(), 0.35 * losses.front());
}

TEST(OnlineTrainer, BufferAndStepsRun) {
  VitConfig cfg;
  cfg.image = 8;
  cfg.patch = 4;
  cfg.embed_dim = 8;
  cfg.heads = 2;
  cfg.depth = 1;
  cfg.seed = 25;
  auto vit = std::make_shared<ViT>(cfg);
  FieldScaler sc;
  OnlineTrainer ot(vit, sc, AdamWConfig{.lr = 1e-3}, /*capacity=*/4, /*steps=*/2);
  Rng rng(26);
  std::vector<double> a(cfg.state_dim()), b(cfg.state_dim());
  for (int k = 0; k < 6; ++k) {
    rng.fill_gaussian(a);
    rng.fill_gaussian(b);
    const auto st = ot.observe_transition(a, b, rng);
    EXPECT_TRUE(std::isfinite(st.loss));
  }
  EXPECT_EQ(ot.buffered(), 4u);  // capacity respected
}

}  // namespace
}  // namespace turbda::nn
