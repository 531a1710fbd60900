#include "nn/vit.hpp"

#include <cmath>

#include "common/check.hpp"

namespace turbda::nn {

std::size_t VitConfig::param_count() const {
  const std::size_t e = embed_dim;
  const std::size_t hdn = mlp_hidden();
  const std::size_t pd = patch_dim();
  const std::size_t t = tokens();
  std::size_t n = 0;
  n += pd * e + e;           // patch projection
  n += t * e;                // positional embedding
  const std::size_t attn = 4 * (e * e + e);       // Wq, Wk, Wv, Wo
  const std::size_t mlp = e * hdn + hdn + hdn * e + e;
  const std::size_t lns = 2 * (2 * e);            // two layernorms per block
  n += depth * (attn + mlp + lns);
  n += 2 * e;                // final layernorm
  n += e * pd + pd;          // head
  return n;
}

// ------------------------------------------------------------------- MLP ---

Mlp::Mlp(std::size_t embed, std::size_t hidden, rng::Rng* rng, const std::string& name)
    : fc1_(embed, hidden, *rng, name + ".fc1"), fc2_(hidden, embed, *rng, name + ".fc2") {}

Tensor Mlp::forward(const Tensor& x) { return fc2_.forward(act_.forward(fc1_.forward(x))); }

Tensor Mlp::backward(const Tensor& grad_out) {
  return fc1_.backward(act_.backward(fc2_.backward(grad_out)));
}

void Mlp::collect_params(std::vector<Param*>& out) {
  fc1_.collect_params(out);
  fc2_.collect_params(out);
}

// --------------------------------------------------------- TransformerBlock

TransformerBlock::TransformerBlock(const VitConfig& cfg, rng::Rng* rng, const std::string& name)
    : ln1_(cfg.embed_dim, name + ".ln1"),
      ln2_(cfg.embed_dim, name + ".ln2"),
      attn_(cfg.embed_dim, cfg.heads, cfg.tokens(), rng, name + ".attn"),
      mlp_(cfg.embed_dim, cfg.mlp_hidden(), rng, name + ".mlp") {}

Tensor TransformerBlock::forward(const Tensor& x) {
  Tensor y = x;
  y += attn_.forward(ln1_.forward(x));
  Tensor z = y;
  z += mlp_.forward(ln2_.forward(y));
  return z;
}

Tensor TransformerBlock::backward(const Tensor& grad_out) {
  // z = y + mlp(ln2(y));  dy = dz + ln2^T mlp^T dz
  Tensor dy = grad_out;
  dy += ln2_.backward(mlp_.backward(grad_out));
  Tensor dx = dy;
  dx += ln1_.backward(attn_.backward(dy));
  return dx;
}

void TransformerBlock::collect_params(std::vector<Param*>& out) {
  ln1_.collect_params(out);
  attn_.collect_params(out);
  ln2_.collect_params(out);
  mlp_.collect_params(out);
}

// ------------------------------------------------------------- PatchEmbed ---

PatchEmbed::PatchEmbed(const VitConfig& cfg, rng::Rng* rng)
    : cfg_(cfg), proj_(cfg.patch_dim(), cfg.embed_dim, *rng, "patch_embed") {
  TURBDA_REQUIRE(cfg.image % cfg.patch == 0, "image size must be divisible by patch size");
  const std::size_t n = cfg.image, p = cfg.patch, g = n / p, c = cfg.channels;
  gather_.reserve(cfg.tokens() * cfg.patch_dim());
  // Token order: row-major over the (g x g) patch grid. Feature order within
  // a token: channel-major then row-major pixels (matches unpatchify below).
  for (std::size_t ty = 0; ty < g; ++ty)
    for (std::size_t tx = 0; tx < g; ++tx)
      for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t py = 0; py < p; ++py)
          for (std::size_t px = 0; px < p; ++px)
            gather_.push_back(ch * n * n + (ty * p + py) * n + (tx * p + px));
}

Tensor PatchEmbed::patchify(const Tensor& x) const {
  const std::size_t b = x.extent(0), t = cfg_.tokens(), pd = cfg_.patch_dim();
  Tensor out({b * t, pd});
  for (std::size_t s = 0; s < b; ++s) {
    const auto row = x.row(s);
    for (std::size_t tok = 0; tok < t; ++tok) {
      auto orow = out.row(s * t + tok);
      const std::size_t* idx = gather_.data() + tok * pd;
      for (std::size_t f = 0; f < pd; ++f) orow[f] = row[idx[f]];
    }
  }
  return out;
}

Tensor PatchEmbed::unpatchify(const Tensor& pt, std::size_t batch) const {
  const std::size_t t = cfg_.tokens(), pd = cfg_.patch_dim();
  TURBDA_REQUIRE(pt.extent(0) == batch * t && pt.extent(1) == pd, "unpatchify: bad shape");
  Tensor out({batch, cfg_.state_dim()});
  for (std::size_t s = 0; s < batch; ++s) {
    auto orow = out.row(s);
    for (std::size_t tok = 0; tok < t; ++tok) {
      const auto prow = pt.row(s * t + tok);
      const std::size_t* idx = gather_.data() + tok * pd;
      for (std::size_t f = 0; f < pd; ++f) orow[idx[f]] = prow[f];
    }
  }
  return out;
}

Tensor PatchEmbed::forward(const Tensor& x) {
  TURBDA_REQUIRE(x.rank() == 2 && x.extent(1) == cfg_.state_dim(),
                 "PatchEmbed: input must be (B, state_dim)");
  patches_ = patchify(x);
  return proj_.forward(patches_);
}

Tensor PatchEmbed::backward(const Tensor& grad_out) {
  const Tensor dpatches = proj_.backward(grad_out);
  const std::size_t b = dpatches.extent(0) / cfg_.tokens();
  return unpatchify(dpatches, b);
}

void PatchEmbed::collect_params(std::vector<Param*>& out) { proj_.collect_params(out); }

// ------------------------------------------------------------------- ViT ---

ViT::ViT(const VitConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      embed_(cfg, &rng_),
      pos_("pos_embed"),
      final_ln_(cfg.embed_dim, "final_ln"),
      head_(cfg.embed_dim, cfg.patch_dim(), rng_, "head") {
  TURBDA_REQUIRE(cfg.embed_dim % cfg.heads == 0, "embed_dim must be divisible by heads");
  pos_.reset_shape({cfg.tokens(), cfg.embed_dim});
  init_trunc_normal(pos_.value, 0.02, rng_);
  blocks_.reserve(cfg.depth);
  for (std::size_t d = 0; d < cfg.depth; ++d)
    blocks_.push_back(
        std::make_unique<TransformerBlock>(cfg, &rng_, "block" + std::to_string(d)));
  // Zero-init the head so the initial surrogate is the identity map — the
  // right prior for a one-step dynamics emulator.
  head_.weight.value.fill(0.0);
}

Tensor ViT::forward(const Tensor& x) {
  TURBDA_REQUIRE(x.rank() == 2 && x.extent(1) == cfg_.state_dim(),
                 "ViT: input must be (B, state_dim)");
  batch_ = x.extent(0);
  Tensor h = embed_.forward(x);  // (B*T, E)
  const std::size_t t = cfg_.tokens();
  for (std::size_t s = 0; s < batch_; ++s)
    for (std::size_t tok = 0; tok < t; ++tok) {
      auto row = h.row(s * t + tok);
      for (std::size_t j = 0; j < cfg_.embed_dim; ++j) row[j] += pos_.value(tok, j);
    }
  for (auto& b : blocks_) h = b->forward(h);
  h = final_ln_.forward(h);
  const Tensor inc_patches = head_.forward(h);
  Tensor out = embed_.unpatchify(inc_patches, batch_);
  out += x;  // residual prediction: next = current + increment
  return out;
}

Tensor ViT::backward(const Tensor& grad_out) {
  TURBDA_REQUIRE(grad_out.extent(0) == batch_, "ViT: backward batch mismatch");
  // out = x + unpatchify(head(...)); the increment path gradient:
  Tensor dpatches = embed_.patchify(grad_out);
  Tensor dh = head_.backward(dpatches);
  dh = final_ln_.backward(dh);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) dh = (*it)->backward(dh);
  const std::size_t t = cfg_.tokens();
  for (std::size_t s = 0; s < batch_; ++s)
    for (std::size_t tok = 0; tok < t; ++tok) {
      const auto row = dh.row(s * t + tok);
      for (std::size_t j = 0; j < cfg_.embed_dim; ++j) pos_.grad(tok, j) += row[j];
    }
  Tensor dx = embed_.backward(dh);
  dx += grad_out;  // residual path
  return dx;
}

void ViT::collect_params(std::vector<Param*>& out) {
  embed_.collect_params(out);
  out.push_back(&pos_);
  for (auto& b : blocks_) b->collect_params(out);
  final_ln_.collect_params(out);
  head_.collect_params(out);
}

std::vector<Param*> ViT::parameters() {
  std::vector<Param*> out;
  collect_params(out);
  return out;
}

std::size_t ViT::num_params() {
  std::size_t n = 0;
  for (const Param* p : parameters()) n += p->size();
  return n;
}

std::vector<double> ViT::state_vector() {
  std::vector<double> out;
  for (const Param* p : parameters()) {
    const auto f = p->value.flat();
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

void ViT::load_state_vector(std::span<const double> state) {
  std::size_t off = 0;
  for (Param* p : parameters()) {
    auto f = p->value.flat();
    TURBDA_REQUIRE(off + f.size() <= state.size(), "load_state_vector: state too short");
    std::copy(state.begin() + static_cast<std::ptrdiff_t>(off),
              state.begin() + static_cast<std::ptrdiff_t>(off + f.size()), f.begin());
    off += f.size();
  }
  TURBDA_REQUIRE(off == state.size(), "load_state_vector: state size mismatch");
}

}  // namespace turbda::nn
