// Layer abstraction for the nn module.
//
// Layers are batch-first: the canonical data path takes a row-major batch
// matrix (one sample per row) through forward_batch/backward_batch, turning
// per-sample matrix-vector products into per-batch GEMM. The per-sample
// forward/backward remain as the single-record reference — forward_batch on
// an n-row batch is bit-identical, row for row, to n calls of forward (same
// operation order within each row). forward_inference is the const,
// cache-free variant used on serving paths, where no backward will follow.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace muffin::nn {

/// A view onto one parameter block and its gradient accumulator. Optimizers
/// consume these without knowing the layer's internals.
struct ParamView {
  std::span<double> value;
  std::span<double> grad;
};

/// Base class for differentiable layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass for one sample. Implementations cache what backward needs.
  virtual tensor::Vector forward(std::span<const double> input) = 0;

  /// Backward pass: given dLoss/dOutput, accumulate parameter gradients and
  /// return dLoss/dInput. Must be called after forward on the same sample.
  virtual tensor::Vector backward(std::span<const double> grad_output) = 0;

  /// Const, cache-free forward for one sample (inference only; no backward
  /// may follow). Bit-identical to forward on the same input.
  [[nodiscard]] virtual tensor::Vector forward_inference(
      std::span<const double> input) const = 0;

  /// Forward pass for a batch (one sample per row). Caches what
  /// backward_batch needs. The base implementation loops forward row by row
  /// — correct output, but it caches only the last row, so layers used in
  /// batched training must override both batch methods together.
  virtual tensor::Matrix forward_batch(const tensor::Matrix& input);

  /// Batched backward: given dLoss/dOutput rows, accumulate parameter
  /// gradients (summed over rows in ascending row order, matching a
  /// per-sample loop) and return dLoss/dInput rows. Must follow
  /// forward_batch on the same batch. The base implementation throws.
  virtual tensor::Matrix backward_batch(const tensor::Matrix& grad_output);

  /// Tape-based training step, the form Mlp's BatchTape drives: the caller
  /// keeps each layer's input and output batches alive between the two
  /// calls, so the layer caches nothing and a warm step allocates nothing.
  /// Bit-identical to forward_batch/backward_batch.
  ///
  /// Writes this layer's training-forward output for `input` into
  /// `output`, which must not alias `input`. The base implementation
  /// forwards to forward_batch.
  virtual void forward_batch_train_into(const tensor::Matrix& input,
                                        tensor::Matrix& output);

  /// Accumulates parameter gradients for the batch whose training forward
  /// saw `input` and produced `output`, exactly as backward_batch would,
  /// and writes dLoss/dInput rows into `*grad_input` — or skips that
  /// product when `grad_input` is null (nothing reads a first layer's
  /// input gradient). `grad_input` must not alias `grad_output`;
  /// `scratch` is caller-owned working storage. The base implementation
  /// forwards to backward_batch.
  virtual void backward_batch_from(const tensor::Matrix& input,
                                   const tensor::Matrix& output,
                                   const tensor::Matrix& grad_output,
                                   tensor::Matrix* grad_input,
                                   tensor::Matrix& scratch);

  /// Const, cache-free batched forward (inference only). The base
  /// implementation loops forward_inference row by row.
  [[nodiscard]] virtual tensor::Matrix forward_batch_inference(
      const tensor::Matrix& input) const;

  /// forward_batch_inference writing into caller-owned storage, so a chain
  /// of layers (Mlp) can ping-pong two scratch matrices instead of
  /// allocating one temporary per layer per batch. `output` must not alias
  /// `input`. The base implementation loops forward_inference row by row.
  virtual void forward_batch_inference_into(const tensor::Matrix& input,
                                            tensor::Matrix& output) const;

  /// Deep copy of this layer's architecture and weights. Gradient
  /// accumulators and forward caches start empty in the clone. A layer
  /// whose weights are borrowed from a mapped artifact clones as another
  /// borrowing layer (sharing the mapping keepalive), which is what lets
  /// engine worker-head clones share artifact pages instead of copying.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  /// Parameter blocks (empty for parameter-free layers).
  virtual std::vector<ParamView> params() { return {}; }

  /// Zero all gradient accumulators.
  virtual void zero_grad() {}

  [[nodiscard]] virtual std::size_t input_dim() const = 0;
  [[nodiscard]] virtual std::size_t output_dim() const = 0;

  /// Total number of trainable scalars.
  [[nodiscard]] std::size_t parameter_count() const;
};

}  // namespace muffin::nn
