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
/// producing the gradient w.r.t. its input. Concurrency happens one level
/// up — `Model::clone()` gives each worker its own layer stack.
///
/// One protocol: every layer writes its results into caller-owned tensors
/// (`forward_into` / `backward_into`), whose storage is reused across
/// calls. The model's activation chain keeps one persistent slot per
/// layer, so once the slots and each layer's own scratch have grown to the
/// largest batch seen, a training step or an evaluation batch allocates
/// nothing. `forward` / `backward` are allocating conveniences over the
/// same arithmetic for one-off callers (tests, benches).
class Layer {
public:
    virtual ~Layer() = default;

    /// Write the layer's output for `input` into `out`, reshaping it.
    virtual void forward_into(const Tensor& input, Tensor& out, bool training) = 0;
    /// Accumulate the parameter gradients of the last forward and write
    /// the gradient w.r.t. its input into `grad_input`, reshaping it.
    virtual void backward_into(const Tensor& grad_output, Tensor& grad_input) = 0;

    [[nodiscard]] Tensor forward(const Tensor& input, bool training) {
        Tensor out;
        forward_into(input, out, training);
        return out;
    }
    [[nodiscard]] Tensor backward(const Tensor& grad_output) {
        Tensor grad_input;
        backward_into(grad_output, grad_input);
        return grad_input;
    }

    /// Backward for a layer whose input gradient nobody reads: accumulate
    /// the parameter gradients exactly as `backward` would, bit for bit,
    /// and skip what only the input gradient needs. `Model::backward` calls
    /// it on the first layer, since the model's input is data. The default
    /// runs `backward_into` into a discarded tensor; `Conv2d`, `Embedding`
    /// and `Flatten` (the first layers of the model zoo) override it.
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
