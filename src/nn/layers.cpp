#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

namespace rsd::nn {

namespace {

/// He-style initialisation for stable ReLU networks.
void init_weights(std::vector<Scalar>& w, std::int64_t fan_in, Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (auto& v : w) v = rng.normal(0.0, stddev);
}

}  // namespace

// ---------------------------------------------------------------- Conv3d

Conv3d::Conv3d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t padding, Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      pad_(padding),
      name_("conv3d_" + std::to_string(in_channels) + "x" + std::to_string(out_channels)) {
  RSD_ASSERT(in_c_ > 0 && out_c_ > 0 && k_ > 0 && pad_ >= 0);
  weight_.assign(static_cast<std::size_t>(out_c_ * in_c_ * k_ * k_ * k_), 0.0);
  bias_.assign(static_cast<std::size_t>(out_c_), 0.0);
  grad_weight_.assign(weight_.size(), 0.0);
  grad_bias_.assign(bias_.size(), 0.0);
  init_weights(weight_, in_c_ * k_ * k_ * k_, rng);
}

Tensor Conv3d::forward(const Tensor& input, exec::Pool& pool) {
  RSD_ASSERT(input.rank() == 5);
  RSD_ASSERT(input.dim(1) == in_c_);
  cached_input_ = input;

  const std::int64_t n = input.dim(0);
  const std::int64_t od = input.dim(2) + 2 * pad_ - k_ + 1;
  const std::int64_t oh = input.dim(3) + 2 * pad_ - k_ + 1;
  const std::int64_t ow = input.dim(4) + 2 * pad_ - k_ + 1;
  RSD_ASSERT(od > 0 && oh > 0 && ow > 0);

  Tensor out{{n, out_c_, od, oh, ow}};
  const std::int64_t id = input.dim(2);
  const std::int64_t ih = input.dim(3);
  const std::int64_t iw = input.dim(4);

  auto widx = [this](std::int64_t oc, std::int64_t ic, std::int64_t a, std::int64_t b,
                     std::int64_t c) {
    return static_cast<std::size_t>((((oc * in_c_ + ic) * k_ + a) * k_ + b) * k_ + c);
  };

  pool.parallel_for(static_cast<std::size_t>(n * out_c_), [&](std::size_t plane) {
    const auto bi = static_cast<std::int64_t>(plane) / out_c_;
    const auto oc = static_cast<std::int64_t>(plane) % out_c_;
    for (std::int64_t z = 0; z < od; ++z) {
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          Scalar acc = bias_[static_cast<std::size_t>(oc)];
          for (std::int64_t ic = 0; ic < in_c_; ++ic) {
            for (std::int64_t a = 0; a < k_; ++a) {
              const std::int64_t zi = z + a - pad_;
              if (zi < 0 || zi >= id) continue;
              for (std::int64_t b = 0; b < k_; ++b) {
                const std::int64_t yi = y + b - pad_;
                if (yi < 0 || yi >= ih) continue;
                for (std::int64_t c = 0; c < k_; ++c) {
                  const std::int64_t xi = x + c - pad_;
                  if (xi < 0 || xi >= iw) continue;
                  acc += weight_[widx(oc, ic, a, b, c)] * input.at5(bi, ic, zi, yi, xi);
                }
              }
            }
          }
          out.at5(bi, oc, z, y, x) = acc;
        }
      }
    }
  });

  flops_ = 2 * n * out_c_ * od * oh * ow * in_c_ * k_ * k_ * k_;
  return out;
}

Tensor Conv3d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::int64_t n = input.dim(0);
  const std::int64_t id = input.dim(2);
  const std::int64_t ih = input.dim(3);
  const std::int64_t iw = input.dim(4);
  const std::int64_t od = grad_output.dim(2);
  const std::int64_t oh = grad_output.dim(3);
  const std::int64_t ow = grad_output.dim(4);

  auto widx = [this](std::int64_t oc, std::int64_t ic, std::int64_t a, std::int64_t b,
                     std::int64_t c) {
    return static_cast<std::size_t>((((oc * in_c_ + ic) * k_ + a) * k_ + b) * k_ + c);
  };

  Tensor grad_input{{n, in_c_, id, ih, iw}};
  // Serial accumulation: gradient buffers are shared across the batch and
  // test-scale workloads keep this loop small.
  for (std::int64_t bi = 0; bi < n; ++bi) {
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      for (std::int64_t z = 0; z < od; ++z) {
        for (std::int64_t y = 0; y < oh; ++y) {
          for (std::int64_t x = 0; x < ow; ++x) {
            const Scalar g = grad_output.at5(bi, oc, z, y, x);
            grad_bias_[static_cast<std::size_t>(oc)] += g;
            for (std::int64_t ic = 0; ic < in_c_; ++ic) {
              for (std::int64_t a = 0; a < k_; ++a) {
                const std::int64_t zi = z + a - pad_;
                if (zi < 0 || zi >= id) continue;
                for (std::int64_t b = 0; b < k_; ++b) {
                  const std::int64_t yi = y + b - pad_;
                  if (yi < 0 || yi >= ih) continue;
                  for (std::int64_t c = 0; c < k_; ++c) {
                    const std::int64_t xi = x + c - pad_;
                    if (xi < 0 || xi >= iw) continue;
                    grad_weight_[widx(oc, ic, a, b, c)] += g * input.at5(bi, ic, zi, yi, xi);
                    grad_input.at5(bi, ic, zi, yi, xi) += g * weight_[widx(oc, ic, a, b, c)];
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

// ------------------------------------------------------------------ Relu

Tensor Relu::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out = input;
  for (auto& v : out.data()) v = std::max(v, Scalar{0});
  flops_ = input.size();
  return out;
}

Tensor Relu::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  const auto in = cached_input_.data();
  auto g = grad.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (in[i] <= 0) g[i] = 0;
  }
  return grad;
}

// ------------------------------------------------------------- MaxPool3d

Tensor MaxPool3d::forward(const Tensor& input) {
  RSD_ASSERT(input.rank() == 5);
  RSD_ASSERT(input.dim(2) % 2 == 0 && input.dim(3) % 2 == 0 && input.dim(4) % 2 == 0);
  in_shape_ = input.shape();
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t od = input.dim(2) / 2;
  const std::int64_t oh = input.dim(3) / 2;
  const std::int64_t ow = input.dim(4) / 2;

  Tensor out{{n, c, od, oh, ow}};
  argmax_.assign(static_cast<std::size_t>(out.size()), 0);

  std::size_t oi = 0;
  for (std::int64_t bi = 0; bi < n; ++bi) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t z = 0; z < od; ++z) {
        for (std::int64_t y = 0; y < oh; ++y) {
          for (std::int64_t x = 0; x < ow; ++x, ++oi) {
            Scalar best = -std::numeric_limits<Scalar>::infinity();
            std::size_t best_idx = 0;
            for (std::int64_t a = 0; a < 2; ++a) {
              for (std::int64_t b = 0; b < 2; ++b) {
                for (std::int64_t d = 0; d < 2; ++d) {
                  const Scalar v = input.at5(bi, ch, 2 * z + a, 2 * y + b, 2 * x + d);
                  if (v > best) {
                    best = v;
                    best_idx = static_cast<std::size_t>(
                        (((bi * c + ch) * input.dim(2) + 2 * z + a) * input.dim(3) + 2 * y + b) *
                            input.dim(4) +
                        2 * x + d);
                  }
                }
              }
            }
            out[oi] = best;
            argmax_[oi] = best_idx;
          }
        }
      }
    }
  }
  flops_ = input.size();
  return out;
}

Tensor MaxPool3d::backward(const Tensor& grad_output) {
  Tensor grad{in_shape_};
  const auto g = grad_output.data();
  for (std::size_t i = 0; i < g.size(); ++i) grad[argmax_[i]] += g[i];
  return grad;
}

// --------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& input) {
  in_shape_ = input.shape();
  Tensor out = input;
  out.reshape({input.dim(0), input.size() / input.dim(0)});
  return out;
}

Tensor Flatten::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  grad.reshape(in_shape_);
  return grad;
}

// ----------------------------------------------------------------- Dense

Dense::Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_f_(in_features),
      out_f_(out_features),
      name_("dense_" + std::to_string(in_features) + "x" + std::to_string(out_features)) {
  RSD_ASSERT(in_f_ > 0 && out_f_ > 0);
  weight_.assign(static_cast<std::size_t>(in_f_ * out_f_), 0.0);
  bias_.assign(static_cast<std::size_t>(out_f_), 0.0);
  grad_weight_.assign(weight_.size(), 0.0);
  grad_bias_.assign(bias_.size(), 0.0);
  init_weights(weight_, in_f_, rng);
}

Tensor Dense::forward(const Tensor& input) {
  RSD_ASSERT(input.rank() == 2);
  RSD_ASSERT(input.dim(1) == in_f_);
  cached_input_ = input;
  const std::int64_t n = input.dim(0);
  Tensor out{{n, out_f_}};
  for (std::int64_t bi = 0; bi < n; ++bi) {
    for (std::int64_t o = 0; o < out_f_; ++o) {
      Scalar acc = bias_[static_cast<std::size_t>(o)];
      for (std::int64_t i = 0; i < in_f_; ++i) {
        acc += weight_[static_cast<std::size_t>(o * in_f_ + i)] * input.at2(bi, i);
      }
      out.at2(bi, o) = acc;
    }
  }
  flops_ = 2 * n * in_f_ * out_f_;
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  const std::int64_t n = cached_input_.dim(0);
  Tensor grad_input{{n, in_f_}};
  for (std::int64_t bi = 0; bi < n; ++bi) {
    for (std::int64_t o = 0; o < out_f_; ++o) {
      const Scalar g = grad_output.at2(bi, o);
      grad_bias_[static_cast<std::size_t>(o)] += g;
      for (std::int64_t i = 0; i < in_f_; ++i) {
        grad_weight_[static_cast<std::size_t>(o * in_f_ + i)] += g * cached_input_.at2(bi, i);
        grad_input.at2(bi, i) += g * weight_[static_cast<std::size_t>(o * in_f_ + i)];
      }
    }
  }
  return grad_input;
}

}  // namespace rsd::nn
