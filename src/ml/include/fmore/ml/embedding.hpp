#pragma once

#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// Token embedding: input [B, T] of token ids (stored as floats), output
/// [B, T, E]. First layer of the text (LSTM) models; backward scatters
/// gradients into the used rows and writes a zero [B, T] input gradient
/// (token ids carry none). A token id is range-checked before it is
/// converted to an index: a negative, NaN or oversized id throws
/// std::out_of_range.
class Embedding final : public Layer {
public:
    Embedding(std::size_t vocab_size, std::size_t embed_dim);

    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    /// The table gradient only: as the first layer, nothing reads the zero
    /// input gradient.
    void backward_params(const Tensor& grad_output) override;
    std::vector<ParamBlock> parameters() override;
    void initialize(stats::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Embedding>(*this);
    }
    [[nodiscard]] std::string name() const override { return "Embedding"; }

private:
    std::size_t vocab_;
    std::size_t dim_;
    std::vector<float> table_;      // [vocab, dim]
    std::vector<float> table_grad_;
    std::vector<std::size_t> cached_ids_;
    std::vector<std::size_t> cached_shape_;
};

} // namespace fmore::ml
