#include "fmore/ml/dense.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fmore/ml/gemm.hpp"

namespace fmore::ml {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_(in_features * out_features, 0.0F),
      bias_(out_features, 0.0F),
      weight_grad_(in_features * out_features, 0.0F),
      bias_grad_(out_features, 0.0F) {
    if (in_ == 0 || out_ == 0) throw std::invalid_argument("Dense: zero-sized layer");
}

void Dense::initialize(stats::Rng& rng) {
    // He/Kaiming-uniform: suits the ReLU nets we build.
    const double bound = std::sqrt(6.0 / static_cast<double>(in_));
    for (float& w : weight_) w = static_cast<float>(rng.uniform(-bound, bound));
    for (float& b : bias_) b = 0.0F;
}

void Dense::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
    if (input.rank() < 2 || input.size() % in_ != 0)
        throw std::invalid_argument("Dense::forward: input incompatible with in_features");
    const std::size_t batch = input.size() / in_;
    cached_input_ = input;
    out.reshape_to({batch, out_});
    const float* x = input.data();
    float* y = out.data();

    // The GEMM's vectorized dimension must be unit-stride, so one operand
    // is transposed, kLanes rows at a time, into an [in, kLanes] panel: the
    // batch's rows for y^T = b + W x^T, or W's rows for y = b + x W^T. Both
    // add each output's products w*x over ascending inputs to its bias
    // (IEEE multiplication commutes), so both give the bits of
    // `reference::NaiveDense`, and the scratch never grows with the batch.
    // W x^T takes a batch that fills more than half of a panel's lanes, so
    // a training minibatch or an evaluation slice never transposes W. Fewer
    // rows would leave most lanes padding, and more would need several
    // panels of the batch, each a full pass over W.
    if (batch > kLanes / 2 && batch <= kLanes) {
        relayout_.resize((in_ + out_) * kLanes);
        float* xt = relayout_.data();
        float* yt = xt + in_ * kLanes;
        for (std::size_t i = 0; i < in_; ++i) {
            float* lanes = xt + i * kLanes;
            for (std::size_t r = 0; r < batch; ++r) lanes[r] = x[r * in_ + i];
            for (std::size_t r = batch; r < kLanes; ++r) lanes[r] = 0.0F;  // pad lanes
        }
        for (std::size_t o = 0; o < out_; ++o) {
            for (std::size_t r = 0; r < kLanes; ++r) yt[o * kLanes + r] = bias_[o];
        }
        gemm_acc(out_, kLanes, in_,
                 weight_.data(), static_cast<std::ptrdiff_t>(in_), 1,
                 xt, static_cast<std::ptrdiff_t>(kLanes),
                 yt, static_cast<std::ptrdiff_t>(kLanes));
        for (std::size_t r = 0; r < batch; ++r) {
            for (std::size_t o = 0; o < out_; ++o) y[r * out_ + o] = yt[o * kLanes + r];
        }
        return;
    }

    for (std::size_t b = 0; b < batch; ++b) {
        float* yb = y + b * out_;
        for (std::size_t o = 0; o < out_; ++o) yb[o] = bias_[o];
    }
    relayout_.resize(in_ * kLanes);
    float* wt = relayout_.data();
    for (std::size_t o0 = 0; o0 < out_; o0 += kLanes) {
        const std::size_t n = std::min(kLanes, out_ - o0);
        for (std::size_t o = 0; o < n; ++o) {
            const float* wrow = weight_.data() + (o0 + o) * in_;
            for (std::size_t i = 0; i < in_; ++i) wt[i * n + o] = wrow[i];
        }
        gemm_acc(batch, n, in_,
                 x, static_cast<std::ptrdiff_t>(in_), 1,
                 wt, static_cast<std::ptrdiff_t>(n),
                 y + o0, static_cast<std::ptrdiff_t>(out_));
    }
}

void Dense::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    const std::size_t batch = cached_input_.size() / in_;
    if (grad_output.size() != batch * out_)
        throw std::invalid_argument("Dense::backward: grad shape mismatch");
    // The GEMM accumulates into gx: start from +0.
    grad_input.reshape_to(cached_input_.shape());
    grad_input.fill(0.0F);
    const float* x = cached_input_.data();
    const float* gy = grad_output.data();
    float* gx = grad_input.data();

    for (std::size_t b = 0; b < batch; ++b) {
        const float* gyb = gy + b * out_;
        for (std::size_t o = 0; o < out_; ++o) bias_grad_[o] += gyb[o];
    }
    // dW[o][i] += sum_b gy[b][o] * x[b][i]: A indexed transposed via
    // strides, no materialized copy.
    gemm_acc(out_, in_, batch,
             gy, 1, static_cast<std::ptrdiff_t>(out_),
             x, static_cast<std::ptrdiff_t>(in_),
             weight_grad_.data(), static_cast<std::ptrdiff_t>(in_));
    // dx = gy * W (W's [out, in] layout is already what the kernel
    // wants: the summed dimension indexes rows).
    gemm_acc(batch, in_, out_,
             gy, static_cast<std::ptrdiff_t>(out_), 1,
             weight_.data(), static_cast<std::ptrdiff_t>(in_),
             gx, static_cast<std::ptrdiff_t>(in_));
}

std::vector<ParamBlock> Dense::parameters() {
    return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

} // namespace fmore::ml
