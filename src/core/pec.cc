#include "src/core/pec.h"

#include <algorithm>

#include "src/data/encoding.h"
#include "src/tensor/ops.h"

namespace odnet {
namespace core {

using tensor::Tensor;

Pec::Pec(const OdnetConfig& config, util::Rng* rng)
    : d_(config.embed_dim),
      long_encoder_(config.embed_dim, config.num_heads, rng),
      short_encoder_(config.embed_dim, config.num_heads, rng),
      attention_(config.embed_dim, rng) {
  RegisterModule("long_encoder", &long_encoder_);
  RegisterModule("short_encoder", &short_encoder_);
  RegisterModule("attention", &attention_);
}

Tensor Pec::Forward(const Tensor& long_emb, const std::vector<float>& long_pad,
                    const Tensor& short_emb,
                    const std::vector<float>& short_pad) const {
  ODNET_CHECK_EQ(long_emb.rank(), 3);
  ODNET_CHECK_EQ(short_emb.rank(), 3);
  const int64_t batch = long_emb.dim(0);
  const int64_t t_long = long_emb.dim(1);
  const int64_t t_short = short_emb.dim(1);
  ODNET_CHECK_EQ(static_cast<int64_t>(long_pad.size()), batch * t_long);
  ODNET_CHECK_EQ(static_cast<int64_t>(short_pad.size()), batch * t_short);

  // Additive key masks for the encoders. HostTensor closures point at the
  // caller's pad vectors (bound-batch fields when captured into a plan, so
  // replays see the refreshed batch).
  auto additive = [](const std::vector<float>* pad) {
    return [pad](float* out) { data::AdditiveMask(*pad, out); };
  };
  Tensor long_mask =
      tensor::HostTensor({batch, t_long}, additive(&long_pad));
  Tensor short_mask =
      tensor::HostTensor({batch, t_short}, additive(&short_pad));

  // Encoding layer (Eq. 3) on both behaviour matrices.
  Tensor encoded_long = long_encoder_.Forward(long_emb, long_mask);
  Tensor encoded_short = short_encoder_.Forward(short_emb, short_mask);

  // Masked average pooling of the encoded short-term matrix -> v_S.
  const std::vector<float>* sp = &short_pad;
  Tensor pad_s = tensor::HostTensor({batch, t_short, 1}, [sp](float* out) {
    std::copy(sp->begin(), sp->end(), out);
  });
  Tensor summed = tensor::SumAxis(tensor::Mul(encoded_short, pad_s), 1);
  Tensor counts =
      tensor::HostTensor({batch, 1}, [sp, batch, t_short](float* out) {
        for (int64_t b = 0; b < batch; ++b) {
          float c = 0.0f;
          for (int64_t i = 0; i < t_short; ++i) {
            c += (*sp)[static_cast<size_t>(b * t_short + i)];
          }
          out[b] = std::max(c, 1.0f);
        }
      });
  Tensor v_s = tensor::Div(summed, counts);

  // Dot-product attention (Eq. 4-5) focusing E_L-hat through v_S; padded
  // long-term positions are excluded from the keys.
  return attention_.Forward(v_s, encoded_long, long_mask);
}

}  // namespace core
}  // namespace odnet
