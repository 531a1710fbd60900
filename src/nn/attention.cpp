#include "nn/attention.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/gemm.hpp"

namespace turbda::nn {

using tensor::gemm;
using tensor::Trans;

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t embed, std::size_t heads,
                                               std::size_t tokens, double attn_dropout,
                                               rng::Rng* rng, const std::string& name)
    : c_(embed),
      h_(heads),
      t_(tokens),
      dh_(embed / heads),
      scale_(1.0 / std::sqrt(static_cast<double>(embed / heads))),
      wq_(embed, embed, *rng, name + ".q"),
      wk_(embed, embed, *rng, name + ".k"),
      wv_(embed, embed, *rng, name + ".v"),
      wo_(embed, embed, *rng, name + ".o"),
      attn_drop_(attn_dropout, rng) {
  TURBDA_REQUIRE(embed % heads == 0, "embed dim must be divisible by heads");
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x) {
  TURBDA_REQUIRE(x.rank() == 2 && x.extent(1) == c_ && x.extent(0) % t_ == 0,
                 "MHSA: input must be (B*T, C)");
  const std::size_t b = x.extent(0) / t_;

  q_ = wq_.forward(x);
  k_ = wk_.forward(x);
  v_ = wv_.forward(x);

  attn_.reset({b * h_, t_, t_});
  concat_.reset({b * t_, c_});

  for (std::size_t s = 0; s < b; ++s) {
    for (std::size_t hd = 0; hd < h_; ++hd) {
      const double* qp = q_.data() + s * t_ * c_ + hd * dh_;
      const double* kp = k_.data() + s * t_ * c_ + hd * dh_;
      double* ap = attn_.data() + (s * h_ + hd) * t_ * t_;
      // scores = scale * Q K^T  (T x T)
      gemm(Trans::No, Trans::Yes, t_, t_, dh_, scale_, qp, c_, kp, c_, ap, t_);
      // row-wise softmax
      for (std::size_t i = 0; i < t_; ++i) {
        double* row = ap + i * t_;
        double mx = row[0];
        for (std::size_t j = 1; j < t_; ++j) mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (std::size_t j = 0; j < t_; ++j) {
          row[j] = std::exp(row[j] - mx);
          denom += row[j];
        }
        const double inv = 1.0 / denom;
        for (std::size_t j = 0; j < t_; ++j) row[j] *= inv;
      }
    }
  }

  // Attention dropout acts on the whole (B*h*T, T) probability tensor; keep
  // the pre-dropout probabilities for the softmax backward.
  {
    Tensor a2 = attn_;
    a2.reshape({b * h_ * t_, t_});
    a2 = attn_drop_.forward(a2);
    a2.reshape({b * h_, t_, t_});
    attn_used_ = std::move(a2);
  }

  for (std::size_t s = 0; s < b; ++s) {
    for (std::size_t hd = 0; hd < h_; ++hd) {
      const double* ap = attn_used_.data() + (s * h_ + hd) * t_ * t_;
      const double* vp = v_.data() + s * t_ * c_ + hd * dh_;
      double* op = concat_.data() + s * t_ * c_ + hd * dh_;
      // out = A V  (T x dh), written into the head's column block.
      gemm(Trans::No, Trans::No, t_, dh_, t_, 1.0, ap, t_, vp, c_, op, c_);
    }
  }

  return wo_.forward(concat_);
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  const std::size_t b = grad_out.extent(0) / t_;
  const Tensor d_concat = wo_.backward(grad_out);

  // dA on the post-dropout path for the whole tensor, then route through the
  // dropout mask before the softmax backward.
  const std::size_t bh = b * h_;
  Tensor da_used({bh * t_, t_});
  for (std::size_t s = 0; s < b; ++s) {
    for (std::size_t hd = 0; hd < h_; ++hd) {
      const double* vp = v_.data() + s * t_ * c_ + hd * dh_;
      const double* dop = d_concat.data() + s * t_ * c_ + hd * dh_;
      double* dap = da_used.data() + (s * h_ + hd) * t_ * t_;
      gemm(Trans::No, Trans::Yes, t_, t_, dh_, 1.0, dop, c_, vp, c_, dap, t_);
    }
  }
  const Tensor da_all = attn_drop_.backward(da_used);

  Tensor dq({b * t_, c_}), dk({b * t_, c_}), dv({b * t_, c_});
  std::vector<double> ds(t_ * t_);

  for (std::size_t s = 0; s < b; ++s) {
    for (std::size_t hd = 0; hd < h_; ++hd) {
      const double* ap = attn_.data() + (s * h_ + hd) * t_ * t_;
      const double* aup = attn_used_.data() + (s * h_ + hd) * t_ * t_;
      const double* qp = q_.data() + s * t_ * c_ + hd * dh_;
      const double* kp = k_.data() + s * t_ * c_ + hd * dh_;
      const double* dop = d_concat.data() + s * t_ * c_ + hd * dh_;
      const double* dap = da_all.data() + (s * h_ + hd) * t_ * t_;
      double* dqp = dq.data() + s * t_ * c_ + hd * dh_;
      double* dkp = dk.data() + s * t_ * c_ + hd * dh_;
      double* dvp = dv.data() + s * t_ * c_ + hd * dh_;

      // dV = A_used^T dO.
      gemm(Trans::Yes, Trans::No, t_, dh_, t_, 1.0, aup, t_, dop, c_, dvp, c_);

      // Softmax backward per row: dS_ij = A_ij (dA_ij - sum_j dA_ij A_ij).
      for (std::size_t i = 0; i < t_; ++i) {
        const double* arow = ap + i * t_;
        const double* darow = dap + i * t_;
        double dotv = 0.0;
        for (std::size_t j = 0; j < t_; ++j) dotv += darow[j] * arow[j];
        double* dsrow = ds.data() + i * t_;
        for (std::size_t j = 0; j < t_; ++j) dsrow[j] = arow[j] * (darow[j] - dotv);
      }

      // dQ = scale * dS K; dK = scale * dS^T Q.
      gemm(Trans::No, Trans::No, t_, dh_, t_, scale_, ds.data(), t_, kp, c_, dqp, c_);
      gemm(Trans::Yes, Trans::No, t_, dh_, t_, scale_, ds.data(), t_, qp, c_, dkp, c_);
    }
  }

  Tensor dx = wq_.backward(dq);
  dx += wk_.backward(dk);
  dx += wv_.backward(dv);
  return dx;
}

void MultiHeadSelfAttention::collect_params(std::vector<Param*>& out) {
  wq_.collect_params(out);
  wk_.collect_params(out);
  wv_.collect_params(out);
  wo_.collect_params(out);
}

void MultiHeadSelfAttention::set_training(bool training) {
  Module::set_training(training);
  attn_drop_.set_training(training);
}

}  // namespace turbda::nn
