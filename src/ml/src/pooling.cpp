#include "fmore/ml/pooling.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

// Vectorization hint for the window scan: every window is its own element,
// so the hint reorders no comparison. Compiled away to nothing when the
// build has no OpenMP-simd support.
#if defined(FMORE_OPENMP_SIMD)
#define FMORE_SIMD _Pragma("omp simd")
#else
#define FMORE_SIMD
#endif

namespace fmore::ml {

void MaxPool2d::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
    if (input.rank() != 4)
        throw std::invalid_argument("MaxPool2d::forward: expected [B, C, H, W]");
    const std::size_t batch = input.dim(0);
    const std::size_t c = input.dim(1);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t oh = h / 2;
    const std::size_t ow = w / 2;
    if (oh == 0 || ow == 0)
        throw std::invalid_argument("MaxPool2d::forward: input too small to pool");
    if (input.size() > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
        throw std::length_error("MaxPool2d::forward: input exceeds 32-bit indexing");
    // A smaller batch at the same (c, h, w) reads a prefix of the table:
    // rebuild only when the image shape changes or the batch outgrows it.
    const bool same_image = cached_shape_.size() == 4 && cached_shape_[1] == c
                            && cached_shape_[2] == h && cached_shape_[3] == w;
    cached_shape_ = input.shape();
    const std::size_t cells = batch * c * oh * ow;
    if (!same_image || cells > corner_.size()) {
        corner_.resize(cells);
        std::int32_t* corner = corner_.data();
        for (std::size_t row = 0; row < batch * c * oh; ++row) {
            const std::size_t top = (row / oh * h + 2 * (row % oh)) * w;
            for (std::size_t ox = 0; ox < ow; ++ox) {
                *corner++ = static_cast<std::int32_t>(top + 2 * ox);
            }
        }
    }

    out.reshape_to({batch, c, oh, ow});
    slot_.resize(cells);
    const float* x = input.data();
    const std::int32_t* corner = corner_.data();
    const auto wi = static_cast<std::int32_t>(w);
    float* y = out.data();
    std::uint8_t* slot = slot_.data();
    // Slots 0-3 are top-left, top-right, bottom-left, bottom-right; a slot
    // replaces the best only when strictly greater. Selects, not jumps: the
    // ties and orderings of fresh activations defeat any branch predictor.
    // The loop runs across every window of the batch, gathering each
    // window's corners by index, so it fills whole vectors however narrow a
    // row is. isgreater is the quiet form of `>` (same answers, NaN
    // included), which lets the compiler turn these selects into vector
    // blends.
    FMORE_SIMD
    for (std::size_t i = 0; i < slot_.size(); ++i) {
        const std::int32_t tl = corner[i];
        float best = x[tl];
        std::int32_t at = 0;
        const float tr = x[tl + 1];
        at = std::isgreater(tr, best) ? 1 : at;
        best = std::isgreater(tr, best) ? tr : best;
        const float bl = x[tl + wi];
        at = std::isgreater(bl, best) ? 2 : at;
        best = std::isgreater(bl, best) ? bl : best;
        const float br = x[tl + wi + 1];
        at = std::isgreater(br, best) ? 3 : at;
        best = std::isgreater(br, best) ? br : best;
        y[i] = best;
        slot[i] = static_cast<std::uint8_t>(at);
    }
}

void MaxPool2d::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    if (grad_output.size() != slot_.size())
        throw std::invalid_argument("MaxPool2d::backward: grad shape mismatch");
    grad_input.reshape_to(cached_shape_);
    grad_input.fill(0.0F);  // reused buffer: the scatter below assumes zeros
    const auto w = static_cast<std::int32_t>(cached_shape_[3]);
    float* gx = grad_input.data();
    const float* gy = grad_output.data();
    const std::int32_t* corner = corner_.data();
    const std::uint8_t* slot = slot_.data();
    // Windows do not overlap, so every winner is a distinct cell: the
    // scatter may run in any order, and each store is the reference's
    // +0 + g.
    FMORE_SIMD
    for (std::size_t i = 0; i < slot_.size(); ++i) {
        const std::int32_t at = slot[i];
        gx[corner[i] + (at >> 1) * w + (at & 1)] = 0.0F + gy[i];
    }
}

} // namespace fmore::ml
