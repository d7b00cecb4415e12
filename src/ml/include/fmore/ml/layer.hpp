#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fmore/ml/tensor.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::ml {

/// A trainable parameter block: values plus the gradient accumulated by the
/// most recent backward pass. Layers expose their blocks so the model can
/// flatten/restore parameters (FedAvg needs that) and run SGD generically.
struct ParamBlock {
    std::vector<float>* values = nullptr;
    std::vector<float>* grads = nullptr;
};

/// Base class for all layers. The training loop is single-threaded per
/// model: forward caches whatever backward needs, and backward must be
/// called with the gradient of the loss w.r.t. this layer's output,
/// returning the gradient w.r.t. its input. Concurrency happens one level
/// up — `Model::clone()` gives each worker its own layer stack.
class Layer {
public:
    virtual ~Layer() = default;

    [[nodiscard]] virtual Tensor forward(const Tensor& input, bool training) = 0;
    [[nodiscard]] virtual Tensor backward(const Tensor& grad_output) = 0;

    /// Buffer-reusing twins of forward/backward: results land in the
    /// caller-owned tensor, whose storage is reused across calls. The
    /// model's activation chain keeps one persistent slot per layer, so a
    /// layer that overrides these (the elementwise family: ReLU, Tanh,
    /// Flatten, MaxPool2d, Dropout) stops paying one tensor allocation per
    /// call — the ROADMAP's "scratch arena" for the cheap layers. The
    /// defaults delegate to the allocating versions (then move into `out`),
    /// so existing custom layers are unaffected. Arithmetic is identical
    /// by contract: outputs are bit-identical to forward/backward.
    virtual void forward_into(const Tensor& input, Tensor& out, bool training) {
        out = forward(input, training);
    }
    virtual void backward_into(const Tensor& grad_output, Tensor& grad_input) {
        grad_input = backward(grad_output);
    }

    /// Backward for a layer whose input gradient nobody reads: accumulate
    /// the parameter gradients exactly as `backward` would, bit for bit,
    /// and skip what only the input gradient needs. `Model::backward` calls
    /// it on the first layer, since the model's input is data. The default
    /// runs `backward_into` into a discarded tensor; `Conv2d` overrides it
    /// to skip its input-gradient kernel.
    virtual void backward_params(const Tensor& grad_output) {
        Tensor discarded;
        backward_into(grad_output, discarded);
    }

    /// Deep copy (parameters, gradients and caches). The copy still points
    /// at the source's RNG until the owning model re-attaches its own —
    /// `Model::clone()` does; manual callers must `attach_rng` themselves.
    [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

    /// Parameter blocks (empty for stateless layers).
    virtual std::vector<ParamBlock> parameters() { return {}; }

    /// Initialize parameters (weight init draws from `rng`); stateless
    /// layers ignore it. Called once when the layer joins a model.
    virtual void initialize(stats::Rng& /*rng*/) {}

    /// Stochastic layers (dropout) draw from the model's generator.
    virtual void attach_rng(stats::Rng* /*rng*/) {}

    [[nodiscard]] virtual std::string name() const = 0;
};

} // namespace fmore::ml
