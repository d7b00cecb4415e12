#include "fmore/ml/activations.hpp"

#include <stdexcept>

namespace fmore::ml {

void ReLU::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
    cached_input_ = input;  // member buffer, capacity reused across calls
    out = input;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] < 0.0F) out[i] = 0.0F;
    }
}

void ReLU::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    if (grad_output.size() != cached_input_.size())
        throw std::invalid_argument("ReLU::backward: shape mismatch");
    grad_input = grad_output;
    for (std::size_t i = 0; i < grad_input.size(); ++i) {
        if (cached_input_[i] <= 0.0F) grad_input[i] = 0.0F;
    }
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
