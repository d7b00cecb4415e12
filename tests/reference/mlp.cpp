#include "fmore/reference/mlp.hpp"

#include <cmath>
#include <stdexcept>

#include "fmore/ml/activations.hpp"
#include "fmore/ml/dense.hpp"

namespace fmore::reference {

void Tanh::forward_into(const ml::Tensor& input, ml::Tensor& out, bool /*training*/) {
    out = input;
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(out[i]);
    cached_output_ = out;
}

void Tanh::backward_into(const ml::Tensor& grad_output, ml::Tensor& grad_input) {
    if (grad_output.size() != cached_output_.size())
        throw std::invalid_argument("Tanh::backward: shape mismatch");
    grad_input = grad_output;
    for (std::size_t i = 0; i < grad_input.size(); ++i) {
        const float y = cached_output_[i];
        grad_input[i] *= 1.0F - y * y;
    }
}

ml::Model make_mlp(const ml::ImageSpec& spec, std::uint64_t seed) {
    ml::Model model(seed);
    model.add(std::make_unique<ml::Flatten>());
    model.add(std::make_unique<ml::Dense>(spec.channels * spec.height * spec.width, 64));
    model.add(std::make_unique<ml::ReLU>());
    model.add(std::make_unique<ml::Dense>(64, spec.classes));
    return model;
}

} // namespace fmore::reference
