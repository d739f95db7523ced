// CNN layers (forward + backward) for the CosmoFlow-style network:
// Conv3D, ReLU, MaxPool3D, Flatten, Dense. Each layer also reports its
// forward FLOP count, which parameterises the CosmoFlow workload
// generator's kernel-duration model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "exec/pool.hpp"
#include "nn/tensor.hpp"

namespace rsd::nn {

/// A trainable parameter block and its gradient accumulator.
struct ParamView {
  std::span<Scalar> values;
  std::span<Scalar> grads;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; must cache whatever backward needs.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Backward pass: given dLoss/dOutput, accumulate parameter gradients and
  /// return dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Trainable parameter blocks (empty for parameterless layers).
  virtual std::vector<ParamView> params() { return {}; }

  /// FLOPs of the most recent forward pass (0 before any forward).
  [[nodiscard]] virtual std::int64_t forward_flops() const { return 0; }
};

/// 3-D convolution, stride 1, symmetric zero padding. Input and output are
/// (N, C, D, H, W).
class Conv3d final : public Layer {
 public:
  Conv3d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t padding, Rng& rng);

  Tensor forward(const Tensor& input) override { return forward(input, exec::Pool::global()); }
  /// Forward pass fanned out over `pool`, one item per (batch, out-channel)
  /// plane; the output is bit-identical at any pool width.
  Tensor forward(const Tensor& input, exec::Pool& pool);
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return name_; }
  std::vector<ParamView> params() override { return {{weight_, grad_weight_}, {bias_, grad_bias_}}; }
  [[nodiscard]] std::int64_t forward_flops() const override { return flops_; }

  [[nodiscard]] std::int64_t out_channels() const { return out_c_; }

 private:
  std::int64_t in_c_;
  std::int64_t out_c_;
  std::int64_t k_;
  std::int64_t pad_;
  std::string name_;
  std::vector<Scalar> weight_;  ///< (outC, inC, k, k, k)
  std::vector<Scalar> bias_;    ///< (outC)
  std::vector<Scalar> grad_weight_;
  std::vector<Scalar> grad_bias_;
  Tensor cached_input_;
  std::int64_t flops_ = 0;
};

class Relu final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "relu"; }
  [[nodiscard]] std::int64_t forward_flops() const override { return flops_; }

 private:
  Tensor cached_input_;
  std::int64_t flops_ = 0;
};

/// 2x2x2 max pooling, stride 2; spatial dims must be even.
class MaxPool3d final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "maxpool3d"; }
  [[nodiscard]] std::int64_t forward_flops() const override { return flops_; }

 private:
  std::vector<std::int64_t> in_shape_;
  std::vector<std::size_t> argmax_;  ///< Input flat index per output element.
  std::int64_t flops_ = 0;
};

/// (N, C, D, H, W) -> (N, C*D*H*W).
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "flatten"; }

 private:
  std::vector<std::int64_t> in_shape_;
};

class Dense final : public Layer {
 public:
  Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return name_; }
  std::vector<ParamView> params() override { return {{weight_, grad_weight_}, {bias_, grad_bias_}}; }
  [[nodiscard]] std::int64_t forward_flops() const override { return flops_; }

 private:
  std::int64_t in_f_;
  std::int64_t out_f_;
  std::string name_;
  std::vector<Scalar> weight_;  ///< (out, in)
  std::vector<Scalar> bias_;
  std::vector<Scalar> grad_weight_;
  std::vector<Scalar> grad_bias_;
  Tensor cached_input_;
  std::int64_t flops_ = 0;
};

}  // namespace rsd::nn
