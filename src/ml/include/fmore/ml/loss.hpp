#pragma once

#include <vector>

#include "fmore/ml/tensor.hpp"

namespace fmore::ml {

/// Fused softmax + cross-entropy over logits [B, C] with integer labels.
/// forward() returns mean loss; backward() returns d(loss)/d(logits)
/// (already divided by the batch size).
class SoftmaxCrossEntropy {
public:
    double forward(const Tensor& logits, const std::vector<int>& labels);
    [[nodiscard]] Tensor backward() const;
    /// The same gradient, written into a buffer the loss owns and reuses
    /// across calls (the training loop's path); valid until the next call.
    [[nodiscard]] const Tensor& gradient();

    /// Row-wise argmax of the last forward's probabilities.
    [[nodiscard]] std::vector<int> predictions() const;
    /// How many rows' argmax equals their label.
    [[nodiscard]] std::size_t hits() const;

private:
    void write_gradient(Tensor& grad) const;
    [[nodiscard]] std::size_t argmax_row(std::size_t row) const;

    Tensor probs_;
    std::vector<int> labels_;
    Tensor grad_;
};

/// Fraction of correct predictions.
double accuracy(const std::vector<int>& predictions, const std::vector<int>& labels);

} // namespace fmore::ml
