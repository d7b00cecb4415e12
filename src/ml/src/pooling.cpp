#include "fmore/ml/pooling.hpp"

#include <stdexcept>

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
    cached_shape_ = input.shape();

    out.reshape_to({batch, c, oh, ow});
    argmax_.resize(out.size());
    const float* x = input.data();
    float* y = out.data();
    std::size_t* arg = argmax_.data();
    for (std::size_t plane = 0; plane < batch * c; ++plane) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
            const std::size_t row = (plane * h + 2 * oy) * w;
            for (std::size_t ox = 0; ox < ow; ++ox) {
                // Slots in order top-left, top-right, bottom-left,
                // bottom-right; a slot replaces the best only when strictly
                // greater. Selects, not jumps: the ties and orderings of
                // fresh activations defeat any branch predictor. The value
                // select compiles to a max instruction; the index select is
                // a mask so the compiler cannot turn it back into a jump.
                const std::size_t tl = row + 2 * ox;
                float best = x[tl];
                std::size_t at = tl;
                for (const std::size_t idx : {tl + 1, tl + w, tl + w + 1}) {
                    const float v = x[idx];
                    const std::size_t take = 0 - static_cast<std::size_t>(v > best);
                    best = v > best ? v : best;
                    at ^= (at ^ idx) & take;
                }
                y[ox] = best;
                arg[ox] = at;
            }
            y += ow;
            arg += ow;
        }
    }
}

void MaxPool2d::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    if (grad_output.size() != argmax_.size())
        throw std::invalid_argument("MaxPool2d::backward: grad shape mismatch");
    grad_input.reshape_to(cached_shape_);
    grad_input.fill(0.0F);  // reused buffer: the scatter below assumes zeros
    float* gx = grad_input.data();
    const float* gy = grad_output.data();
    for (std::size_t i = 0; i < argmax_.size(); ++i) {
        gx[argmax_[i]] += gy[i];
    }
}

} // namespace fmore::ml
