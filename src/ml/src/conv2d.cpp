#include "fmore/ml/conv2d.hpp"

#include <cmath>
#include <stdexcept>

#include "fmore/ml/gemm.hpp"

namespace fmore::ml {

namespace {

/// Geometry of one image of `input` ([B, C, H, W]) under a k x k kernel.
ConvShape image_shape(const Tensor& input, std::size_t k) {
    ConvShape shape;
    shape.in_c = input.dim(1);
    shape.h = input.dim(2);
    shape.w = input.dim(3);
    shape.kh = k;
    shape.kw = k;
    return shape;
}

/// The geometry backward runs on, after checking that `grad_output`
/// matches the output of the cached forward input.
ConvShape backward_shape(const Tensor& cached_input, std::size_t out_c, std::size_t k,
                         const Tensor& grad_output) {
    const ConvShape shape = image_shape(cached_input, k);
    if (grad_output.size() != cached_input.dim(0) * out_c * shape.out_pixels())
        throw std::invalid_argument("Conv2d::backward: grad shape mismatch");
    return shape;
}

} // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      weight_(out_channels * in_channels * kernel * kernel, 0.0F),
      bias_(out_channels, 0.0F),
      weight_grad_(weight_.size(), 0.0F),
      bias_grad_(out_channels, 0.0F) {
    if (in_c_ == 0 || out_c_ == 0 || k_ == 0)
        throw std::invalid_argument("Conv2d: zero-sized configuration");
}

void Conv2d::initialize(stats::Rng& rng) {
    const double fan_in = static_cast<double>(in_c_ * k_ * k_);
    const double bound = std::sqrt(6.0 / fan_in);
    for (float& w : weight_) w = static_cast<float>(rng.uniform(-bound, bound));
    for (float& b : bias_) b = 0.0F;
}

void Conv2d::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
    if (input.rank() != 4 || input.dim(1) != in_c_)
        throw std::invalid_argument("Conv2d::forward: expected [B, C, H, W] input");
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    if (h < k_ || w < k_)
        throw std::invalid_argument("Conv2d::forward: input smaller than kernel");
    cached_input_ = input;

    // The kernel overwrites every output element.
    out.reshape_to({batch, out_c_, h - k_ + 1, w - k_ + 1});
    conv2d_forward(input.data(), weight_.data(), bias_.data(), out_c_,
                   image_shape(input, k_), batch, w_blocks_, out.data());
}

void Conv2d::backward_params(const Tensor& grad_output) {
    conv2d_weight_grad(cached_input_.data(), grad_output.data(), out_c_,
                       backward_shape(cached_input_, out_c_, k_, grad_output),
                       cached_input_.dim(0), gy_t_, weight_grad_.data(),
                       bias_grad_.data());
}

void Conv2d::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    const ConvShape shape = backward_shape(cached_input_, out_c_, k_, grad_output);
    const std::size_t batch = cached_input_.dim(0);
    grad_input.reshape_to(cached_input_.shape());
    const float* gy = grad_output.data();
    conv2d_weight_grad(cached_input_.data(), gy, out_c_, shape, batch, gy_t_,
                       weight_grad_.data(), bias_grad_.data());
    // The input-gradient kernel overwrites gx.
    conv2d_input_grad(gy, weight_.data(), out_c_, shape, batch, gy_lanes_,
                      grad_input.data());
}

std::vector<ParamBlock> Conv2d::parameters() {
    return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

} // namespace fmore::ml
