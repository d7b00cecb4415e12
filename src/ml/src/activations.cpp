#include "fmore/ml/activations.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

// Vectorization hint for the elementwise loops: every element is its own
// select, so the hint reorders nothing. Compiled away to nothing when the
// build has no OpenMP-simd support.
#if defined(FMORE_OPENMP_SIMD)
#define FMORE_SIMD _Pragma("omp simd")
#else
#define FMORE_SIMD
#endif

namespace fmore::ml {

void ReLU::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
    const std::size_t n = input.size();
    const float* x = input.data();
    // Backward's mask, !(x <= 0): 0 for negatives and both zeros, 1 for
    // positives and NaN. Written in its own loop, before `out`: fused with
    // the float store, the loop did not vectorize. islessequal and isless
    // are the quiet forms of <= and < (same answers, NaN included), which
    // GCC turns into vector selects.
    mask_.resize(n);
    std::uint8_t* mask = mask_.data();
    FMORE_SIMD
    for (std::size_t i = 0; i < n; ++i) mask[i] = !std::islessequal(x[i], 0.0F) ? 1 : 0;
    // x < 0 ? +0 : x, so -0 and NaN pass through unchanged.
    out.reshape_to(input.shape());
    float* y = out.data();
    FMORE_SIMD
    for (std::size_t i = 0; i < n; ++i) y[i] = std::isless(x[i], 0.0F) ? 0.0F : x[i];
}

void ReLU::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    if (grad_output.size() != mask_.size())
        throw std::invalid_argument("ReLU::backward: shape mismatch");
    grad_input.reshape_to(grad_output.shape());
    const float* g = grad_output.data();
    const std::uint8_t* mask = mask_.data();
    float* gx = grad_input.data();
    FMORE_SIMD
    for (std::size_t i = 0; i < mask_.size(); ++i) gx[i] = mask[i] != 0 ? g[i] : 0.0F;
}

void Flatten::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
    if (input.rank() < 1) throw std::invalid_argument("Flatten: rank-0 input");
    cached_shape_ = input.shape();
    const std::size_t batch = input.dim(0);
    out = input;
    out.reshape_to({batch, input.size() / batch});
}

void Flatten::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    grad_input = grad_output;
    grad_input.reshape_to(cached_shape_);
}

} // namespace fmore::ml
