#include "nn/layers.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/gemm.hpp"

namespace turbda::nn {

// ---------------------------------------------------------------- Linear ---

Linear::Linear(std::size_t in, std::size_t out, rng::Rng& rng, std::string name)
    : weight(name + ".weight"), bias(name + ".bias"), in_(in), out_(out) {
  weight.reset_shape({in, out});
  bias.reset_shape({out});
  init_trunc_normal(weight.value, 1.0 / std::sqrt(static_cast<double>(in)), rng);
}

Tensor Linear::forward(const Tensor& x) {
  TURBDA_REQUIRE(x.rank() == 2 && x.extent(1) == in_,
                 "Linear: input features " << x.extent(1) << " != " << in_);
  x_ = x;
  Tensor y = tensor::matmul(x, weight.value);
  for (std::size_t r = 0; r < y.extent(0); ++r) {
    auto row = y.row(r);
    for (std::size_t j = 0; j < out_; ++j) row[j] += bias.value(j);
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  TURBDA_REQUIRE(grad_out.rank() == 2 && grad_out.extent(1) == out_, "Linear: bad grad shape");
  // dW += X^T dY; db += colsum dY; dX = dY W^T.
  const Tensor dw = tensor::matmul_tn(x_, grad_out);
  weight.grad += dw;
  for (std::size_t r = 0; r < grad_out.extent(0); ++r) {
    const auto row = grad_out.row(r);
    for (std::size_t j = 0; j < out_; ++j) bias.grad(j) += row[j];
  }
  return tensor::matmul_nt(grad_out, weight.value);
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight);
  out.push_back(&bias);
}

// ------------------------------------------------------------- LayerNorm ---

LayerNorm::LayerNorm(std::size_t features, std::string name, double eps)
    : gain(name + ".gain"), bias(name + ".bias"), c_(features), eps_(eps) {
  gain.reset_shape({features});
  bias.reset_shape({features});
  gain.value.fill(1.0);
}

Tensor LayerNorm::forward(const Tensor& x) {
  TURBDA_REQUIRE(x.rank() == 2 && x.extent(1) == c_, "LayerNorm: bad input shape");
  const std::size_t rows = x.extent(0);
  xhat_.reset({rows, c_});
  inv_sd_.resize(rows);
  Tensor y({rows, c_});
  const double invc = 1.0 / static_cast<double>(c_);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto xr = x.row(r);
    double mu = 0.0;
    for (double v : xr) mu += v;
    mu *= invc;
    double var = 0.0;
    for (double v : xr) var += (v - mu) * (v - mu);
    var *= invc;
    const double inv_sd = 1.0 / std::sqrt(var + eps_);
    inv_sd_[r] = inv_sd;
    auto xh = xhat_.row(r);
    auto yr = y.row(r);
    for (std::size_t j = 0; j < c_; ++j) {
      xh[j] = (xr[j] - mu) * inv_sd;
      yr[j] = gain.value(j) * xh[j] + bias.value(j);
    }
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  TURBDA_REQUIRE(grad_out.rank() == 2 && grad_out.extent(1) == c_, "LayerNorm: bad grad shape");
  const std::size_t rows = grad_out.extent(0);
  Tensor dx({rows, c_});
  const double invc = 1.0 / static_cast<double>(c_);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto dy = grad_out.row(r);
    const auto xh = xhat_.row(r);
    auto dxr = dx.row(r);
    // dxhat = dy * gain; then the standard layernorm backward:
    // dx = inv_sd * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat))
    double m1 = 0.0, m2 = 0.0;
    for (std::size_t j = 0; j < c_; ++j) {
      const double dxh = dy[j] * gain.value(j);
      m1 += dxh;
      m2 += dxh * xh[j];
      gain.grad(j) += dy[j] * xh[j];
      bias.grad(j) += dy[j];
    }
    m1 *= invc;
    m2 *= invc;
    for (std::size_t j = 0; j < c_; ++j) {
      const double dxh = dy[j] * gain.value(j);
      dxr[j] = inv_sd_[r] * (dxh - m1 - xh[j] * m2);
    }
  }
  return dx;
}

void LayerNorm::collect_params(std::vector<Param*>& out) {
  out.push_back(&gain);
  out.push_back(&bias);
}

// ------------------------------------------------------------------ GELU ---

namespace {
constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)
constexpr double kGeluA = 0.044715;
}  // namespace

Tensor Gelu::forward(const Tensor& x) {
  x_ = x;
  Tensor y = x;
  for (double& v : y.flat()) {
    const double t = std::tanh(kGeluC * (v + kGeluA * v * v * v));
    v = 0.5 * v * (1.0 + t);
  }
  return y;
}

Tensor Gelu::backward(const Tensor& grad_out) {
  Tensor dx = grad_out;
  auto dxf = dx.flat();
  const auto xf = x_.flat();
  for (std::size_t i = 0; i < xf.size(); ++i) {
    const double v = xf[i];
    const double u = kGeluC * (v + kGeluA * v * v * v);
    const double t = std::tanh(u);
    const double du = kGeluC * (1.0 + 3.0 * kGeluA * v * v);
    const double dydx = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
    dxf[i] *= dydx;
  }
  return dx;
}

}  // namespace turbda::nn
