#include "nn/linear.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "tensor/ops.h"

namespace muffin::nn {

Linear::Linear(std::size_t in_dim, std::size_t out_dim)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weights_(out_dim, in_dim),
      bias_(out_dim, 0.0),
      weight_grad_(out_dim, in_dim),
      bias_grad_(out_dim, 0.0) {
  MUFFIN_REQUIRE(in_dim > 0 && out_dim > 0,
                 "linear layer dimensions must be positive");
}

Linear::Linear(std::size_t in_dim, std::size_t out_dim, DeferStorage)
    : in_dim_(in_dim), out_dim_(out_dim) {
  MUFFIN_REQUIRE(in_dim > 0 && out_dim > 0,
                 "linear layer dimensions must be positive");
}

// Manual copy control: the pack mutex is not copyable, and the copy should
// share a mapped source's pages rather than materialize them. The quant pack
// itself is immutable and keyed only by the weights, so sharing the
// shared_ptr with the source is safe and skips a re-pack.
Linear::Linear(const Linear& other)
    : in_dim_(other.in_dim_),
      out_dim_(other.out_dim_),
      weights_(other.weights_),
      bias_(other.bias_),
      weight_grad_(other.weight_grad_),
      bias_grad_(other.bias_grad_),
      mapped_weights_(other.mapped_weights_),
      mapped_bias_(other.mapped_bias_),
      keepalive_(other.keepalive_) {
  const std::lock_guard<std::mutex> lock(other.qpack_mutex_);
  qpack_ = other.qpack_;
}

Linear& Linear::operator=(const Linear& other) {
  if (this == &other) return *this;
  in_dim_ = other.in_dim_;
  out_dim_ = other.out_dim_;
  weights_ = other.weights_;
  bias_ = other.bias_;
  weight_grad_ = other.weight_grad_;
  bias_grad_ = other.bias_grad_;
  last_input_.clear();
  last_batch_input_ = tensor::Matrix();
  mapped_weights_ = other.mapped_weights_;
  mapped_bias_ = other.mapped_bias_;
  keepalive_ = other.keepalive_;
  std::shared_ptr<const tensor::QuantizedGemmB> pack;
  {
    const std::lock_guard<std::mutex> lock(other.qpack_mutex_);
    pack = other.qpack_;
  }
  const std::lock_guard<std::mutex> lock(qpack_mutex_);
  qpack_ = std::move(pack);
  return *this;
}

void Linear::require_trainable(const char* what) const {
  MUFFIN_REQUIRE(!mapped(), std::string(what) +
                                ": layer is frozen (weights are mapped "
                                "read-only from a model artifact)");
}

void Linear::invalidate_pack() const {
  const std::lock_guard<std::mutex> lock(qpack_mutex_);
  qpack_.reset();
}

std::shared_ptr<const tensor::QuantizedGemmB> Linear::quant_pack(
    tensor::QuantMode mode) const {
  const std::lock_guard<std::mutex> lock(qpack_mutex_);
  if (qpack_ == nullptr || qpack_->mode != mode) {
    qpack_ = std::make_shared<const tensor::QuantizedGemmB>(
        tensor::build_quant_pack(weight_data(), out_dim_, in_dim_, mode));
  }
  return qpack_;
}

void Linear::adopt_weights(const double* weights, const double* bias,
                           std::shared_ptr<const void> keepalive) {
  MUFFIN_REQUIRE(weights != nullptr && bias != nullptr,
                 "adopt_weights requires non-null weight and bias blocks");
  mapped_weights_ = weights;
  mapped_bias_ = bias;
  keepalive_ = std::move(keepalive);
  // Release the heap copies — the whole point of mapping is not paying for
  // them. Training caches go too; the layer is inference-only from here.
  weights_ = tensor::Matrix();
  bias_.clear();
  bias_.shrink_to_fit();
  weight_grad_ = tensor::Matrix();
  bias_grad_.clear();
  bias_grad_.shrink_to_fit();
  last_input_.clear();
  last_batch_input_ = tensor::Matrix();
  invalidate_pack();
}

void Linear::init_xavier(SplitRng& rng) {
  require_trainable("init_xavier");
  const double bound =
      std::sqrt(6.0 / static_cast<double>(in_dim_ + out_dim_));
  for (double& w : weights_.flat()) w = rng.uniform(-bound, bound);
  for (double& b : bias_) b = 0.0;
  invalidate_pack();
}

void Linear::init_he(SplitRng& rng) {
  require_trainable("init_he");
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_dim_));
  for (double& w : weights_.flat()) w = rng.normal(0.0, stddev);
  for (double& b : bias_) b = 0.0;
  invalidate_pack();
}

tensor::Vector Linear::forward(std::span<const double> input) {
  require_trainable("forward");
  MUFFIN_REQUIRE(input.size() == in_dim_, "linear input size mismatch");
  // The optimizer writes weights through ParamViews handed out before the
  // epoch loop, so a stale pack cannot be detected at the mutation site;
  // dropping it on every training forward keeps fit-then-serve correct.
  invalidate_pack();
  last_input_.assign(input.begin(), input.end());
  tensor::Vector out = tensor::matvec(weights_, input);
  for (std::size_t i = 0; i < out_dim_; ++i) out[i] += bias_[i];
  return out;
}

tensor::Vector Linear::backward(std::span<const double> grad_output) {
  require_trainable("backward");
  MUFFIN_REQUIRE(grad_output.size() == out_dim_,
                 "linear gradient size mismatch");
  MUFFIN_REQUIRE(last_input_.size() == in_dim_,
                 "backward called before forward");
  for (std::size_t i = 0; i < out_dim_; ++i) {
    bias_grad_[i] += grad_output[i];
    const double gi = grad_output[i];
    if (gi == 0.0) continue;
    for (std::size_t j = 0; j < in_dim_; ++j) {
      weight_grad_(i, j) += gi * last_input_[j];
    }
  }
  return tensor::matvec_transposed(weights_, grad_output);
}

tensor::Vector Linear::forward_inference(std::span<const double> input) const {
  MUFFIN_REQUIRE(input.size() == in_dim_, "linear input size mismatch");
  const tensor::QuantMode mode = tensor::active_quant_mode();
  if (mode != tensor::QuantMode::Off) {
    // Route the single record through the same dequantizing GEMM the batch
    // path uses (as a 1-row batch) so scores() stays bit-identical, row for
    // row, to score_batch() in every quant mode.
    tensor::Matrix in_row(1, in_dim_);
    std::copy(input.begin(), input.end(), in_row.row(0).begin());
    const auto pack = quant_pack(mode);
    tensor::Matrix out_row;
    tensor::matmul_transposed_b_bias_quant_into(in_row, *pack, bias_span(),
                                                out_row);
    const auto r = out_row.row(0);
    return tensor::Vector(r.begin(), r.end());
  }
  // Same accumulation order as tensor::matvec followed by the bias loop.
  const double* w = weight_data();
  const std::span<const double> bias = bias_span();
  tensor::Vector out(out_dim_, 0.0);
  for (std::size_t i = 0; i < out_dim_; ++i) {
    const double* row = w + i * in_dim_;
    double acc = 0.0;
    for (std::size_t j = 0; j < in_dim_; ++j) acc += row[j] * input[j];
    out[i] = acc;
  }
  for (std::size_t i = 0; i < out_dim_; ++i) out[i] += bias[i];
  return out;
}

tensor::Matrix Linear::forward_batch(const tensor::Matrix& input) {
  tensor::Matrix out;
  forward_batch_train_into(input, out);
  last_batch_input_ = input;
  return out;
}

void Linear::forward_batch_train_into(const tensor::Matrix& input,
                                      tensor::Matrix& output) {
  require_trainable("forward_batch");
  MUFFIN_REQUIRE(input.cols() == in_dim_, "linear batch input size mismatch");
  invalidate_pack();  // see forward(): ParamView writes are invisible here
  tensor::matmul_transposed_b_bias_into(input, weights_, bias_, output);
}

void Linear::forward_batch_inference_into(const tensor::Matrix& input,
                                          tensor::Matrix& output) const {
  MUFFIN_REQUIRE(input.cols() == in_dim_, "linear batch input size mismatch");
  const tensor::QuantMode mode = tensor::active_quant_mode();
  if (mode != tensor::QuantMode::Off) {
    const auto pack = quant_pack(mode);
    tensor::matmul_transposed_b_bias_quant_into(input, *pack, bias_span(),
                                                output);
    return;
  }
  tensor::matmul_transposed_b_bias_into(input, weight_data(), out_dim_,
                                        bias_span(), output);
}

tensor::Matrix Linear::backward_batch(const tensor::Matrix& grad_output) {
  tensor::Matrix grad_input;
  tensor::Matrix scratch;
  backward_batch_from(last_batch_input_, tensor::Matrix(), grad_output,
                      &grad_input, scratch);
  return grad_input;
}

void Linear::backward_batch_from(const tensor::Matrix& input,
                                 const tensor::Matrix& /*output*/,
                                 const tensor::Matrix& grad_output,
                                 tensor::Matrix* grad_input,
                                 tensor::Matrix& scratch) {
  require_trainable("backward_batch");
  MUFFIN_REQUIRE(grad_output.cols() == out_dim_,
                 "linear batch gradient size mismatch");
  MUFFIN_REQUIRE(input.rows() == grad_output.rows() && input.cols() == in_dim_,
                 "batched backward called before forward_batch");
  const std::size_t n = grad_output.rows();
  for (std::size_t r = 0; r < n; ++r) {
    const auto g = grad_output.row(r);
    for (std::size_t i = 0; i < out_dim_; ++i) bias_grad_[i] += g[i];
  }
  // weight_grad(i, j) += sum_r g(r, i) x(r, j): G^T as the kernel's A makes
  // k the sample index, so terms add in ascending sample order and a zero
  // g(r, i) is skipped — the per-sample backward's order and skip.
  tensor::transpose_into(grad_output, scratch);
  tensor::matmul_accumulate_serial(scratch, input, weight_grad_);
  if (grad_input == nullptr) return;
  // grad_input(r, j) = sum_i g(r, i) w(i, j), i ascending with the same
  // skip: matvec_transposed per row, as a single product.
  grad_input->resize(n, in_dim_);
  tensor::matmul_accumulate_serial(grad_output, weights_, *grad_input);
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::make_unique<Linear>(*this);
}

std::vector<ParamView> Linear::params() {
  require_trainable("params");
  invalidate_pack();  // callers hold mutable views past this call
  return {ParamView{weights_.flat(), weight_grad_.flat()},
          ParamView{bias_, bias_grad_}};
}

void Linear::zero_grad() {
  require_trainable("zero_grad");
  weight_grad_.fill(0.0);
  for (double& g : bias_grad_) g = 0.0;
}

const tensor::Matrix& Linear::weights() const {
  require_trainable("weights");
  return weights_;
}

tensor::Matrix& Linear::weights() {
  require_trainable("weights");
  invalidate_pack();
  return weights_;
}

const tensor::Vector& Linear::bias() const {
  require_trainable("bias");
  return bias_;
}

tensor::Vector& Linear::bias() {
  require_trainable("bias");
  invalidate_pack();
  return bias_;
}

}  // namespace muffin::nn
