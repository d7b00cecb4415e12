#include "fmore/ml/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmore::ml {

double SoftmaxCrossEntropy::forward(const Tensor& logits, const std::vector<int>& labels) {
    if (logits.rank() != 2)
        throw std::invalid_argument("SoftmaxCrossEntropy: expected [B, C] logits");
    const std::size_t batch = logits.dim(0);
    const std::size_t classes = logits.dim(1);
    if (labels.size() != batch)
        throw std::invalid_argument("SoftmaxCrossEntropy: label count mismatch");

    probs_ = logits;
    labels_ = labels;
    double total_loss = 0.0;
    for (std::size_t b = 0; b < batch; ++b) {
        float* row = probs_.data() + b * classes;
        const int label = labels[b];
        if (label < 0 || static_cast<std::size_t>(label) >= classes)
            throw std::out_of_range("SoftmaxCrossEntropy: label out of range");
        float mx = row[0];
        for (std::size_t c = 1; c < classes; ++c) mx = std::max(mx, row[c]);
        double denom = 0.0;
        for (std::size_t c = 0; c < classes; ++c) {
            row[c] = std::exp(row[c] - mx);
            denom += row[c];
        }
        const auto inv = static_cast<float>(1.0 / denom);
        for (std::size_t c = 0; c < classes; ++c) row[c] *= inv;
        total_loss += -std::log(std::max(1e-12, static_cast<double>(row[label])));
    }
    return total_loss / static_cast<double>(batch);
}

void SoftmaxCrossEntropy::write_gradient(Tensor& grad) const {
    if (probs_.size() == 0) throw std::logic_error("SoftmaxCrossEntropy: forward first");
    const std::size_t batch = probs_.dim(0);
    const std::size_t classes = probs_.dim(1);
    grad = probs_;
    const auto scale = static_cast<float>(1.0 / static_cast<double>(batch));
    for (std::size_t b = 0; b < batch; ++b) {
        float* row = grad.data() + b * classes;
        row[labels_[b]] -= 1.0F;
        for (std::size_t c = 0; c < classes; ++c) row[c] *= scale;
    }
}

Tensor SoftmaxCrossEntropy::backward() const {
    Tensor grad;
    write_gradient(grad);
    return grad;
}

const Tensor& SoftmaxCrossEntropy::gradient() {
    write_gradient(grad_);
    return grad_;
}

std::size_t SoftmaxCrossEntropy::argmax_row(std::size_t row) const {
    const std::size_t classes = probs_.dim(1);
    const float* p = probs_.data() + row * classes;
    std::size_t best = 0;
    for (std::size_t c = 1; c < classes; ++c) {
        if (p[c] > p[best]) best = c;
    }
    return best;
}

std::vector<int> SoftmaxCrossEntropy::predictions() const {
    if (probs_.size() == 0) throw std::logic_error("SoftmaxCrossEntropy: forward first");
    std::vector<int> preds(probs_.dim(0), 0);
    for (std::size_t b = 0; b < preds.size(); ++b) preds[b] = static_cast<int>(argmax_row(b));
    return preds;
}

std::size_t SoftmaxCrossEntropy::hits() const {
    if (probs_.size() == 0) throw std::logic_error("SoftmaxCrossEntropy: forward first");
    std::size_t count = 0;
    for (std::size_t b = 0; b < labels_.size(); ++b) {
        if (static_cast<int>(argmax_row(b)) == labels_[b]) ++count;
    }
    return count;
}

double accuracy(const std::vector<int>& predictions, const std::vector<int>& labels) {
    if (predictions.size() != labels.size() || predictions.empty())
        throw std::invalid_argument("accuracy: size mismatch or empty");
    std::size_t hits = 0;
    for (std::size_t i = 0; i < predictions.size(); ++i) {
        if (predictions[i] == labels[i]) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(predictions.size());
}

} // namespace fmore::ml
