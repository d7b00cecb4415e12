#include "fmore/ml/model.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace fmore::ml {

Model::Model(std::uint64_t seed) : rng_(seed) {}

// Moves must re-attach: stochastic layers hold a pointer to the owning
// model's RNG member, whose address changes with the object.
Model::Model(Model&& other) noexcept
    : layers_(std::move(other.layers_)),
      rng_(other.rng_),
      loss_(std::move(other.loss_)),
      params_(std::move(other.params_)),
      acts_(std::move(other.acts_)),
      grads_(std::move(other.grads_)),
      order_(std::move(other.order_)),
      batch_(std::move(other.batch_)),
      batch_labels_(std::move(other.batch_labels_)),
      eval_logits_(std::move(other.eval_logits_)) {
    reattach_layers();
}

Model& Model::operator=(Model&& other) noexcept {
    if (this != &other) {
        layers_ = std::move(other.layers_);
        rng_ = other.rng_;
        loss_ = std::move(other.loss_);
        params_ = std::move(other.params_);
        acts_ = std::move(other.acts_);
        grads_ = std::move(other.grads_);
        order_ = std::move(other.order_);
        batch_ = std::move(other.batch_);
        batch_labels_ = std::move(other.batch_labels_);
        eval_logits_ = std::move(other.eval_logits_);
        reattach_layers();
    }
    return *this;
}

void Model::reattach_layers() {
    for (auto& layer : layers_) layer->attach_rng(&rng_);
}

void Model::collect_parameters() {
    params_.clear();
    for (auto& layer : layers_) {
        for (const ParamBlock& block : layer->parameters()) params_.push_back(block);
    }
}

void Model::add(std::unique_ptr<Layer> layer) {
    layer->initialize(rng_);
    layer->attach_rng(&rng_);
    layers_.push_back(std::move(layer));
    collect_parameters();
}

Model Model::clone() const {
    Model copy(0);
    copy.rng_ = rng_;
    copy.loss_ = loss_;
    copy.layers_.reserve(layers_.size());
    for (const auto& layer : layers_) copy.layers_.push_back(layer->clone());
    copy.reattach_layers();
    copy.collect_parameters();
    return copy;
}

void Model::reseed(std::uint64_t seed) { rng_ = stats::Rng(seed); }

const Tensor& Model::forward(const Tensor& input, bool training) {
    // Slot-chained: layer i reads slot i-1 and writes slot i. Slots keep
    // their storage across calls, so in-place layers (and same-shape
    // batches generally) touch no allocator.
    acts_.resize(layers_.size());
    const Tensor* current = &input;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        layers_[i]->forward_into(*current, acts_[i], training);
        current = &acts_[i];
    }
    return *current;
}

void Model::backward(const Tensor& grad_loss) {
    if (layers_.empty()) return;
    // grads_[i - 1] holds the gradient w.r.t. layer i's input. Nothing
    // reads the gradient w.r.t. the model input, so the first layer only
    // accumulates its parameter gradients.
    grads_.resize(layers_.size() - 1);
    const Tensor* current = &grad_loss;
    for (std::size_t i = layers_.size(); i-- > 1;) {
        layers_[i]->backward_into(*current, grads_[i - 1]);
        current = &grads_[i - 1];
    }
    layers_[0]->backward_params(*current);
}

void Model::zero_grad() {
    for (const ParamBlock& block : params_) {
        for (float& g : *block.grads) g = 0.0F;
    }
}

void Model::sgd_step(double learning_rate) {
    const auto lr = static_cast<float>(learning_rate);
    for (const ParamBlock& block : params_) {
        for (std::size_t i = 0; i < block.values->size(); ++i) {
            (*block.values)[i] -= lr * (*block.grads)[i];
        }
    }
}

std::size_t Model::parameter_count() {
    std::size_t total = 0;
    for (const ParamBlock& block : params_) total += block.values->size();
    return total;
}

std::vector<float> Model::get_parameters() {
    std::vector<float> flat;
    get_parameters_into(flat);
    return flat;
}

void Model::get_parameters_into(std::vector<float>& flat) {
    flat.resize(parameter_count());
    float* dst = flat.data();
    for (const ParamBlock& block : params_) {
        dst = std::copy(block.values->begin(), block.values->end(), dst);
    }
}

void Model::set_parameters(const std::vector<float>& flat) {
    std::size_t offset = 0;
    for (const ParamBlock& block : params_) {
        if (offset + block.values->size() > flat.size())
            throw std::invalid_argument("Model::set_parameters: vector too short");
        for (std::size_t i = 0; i < block.values->size(); ++i) {
            (*block.values)[i] = flat[offset + i];
        }
        offset += block.values->size();
    }
    if (offset != flat.size())
        throw std::invalid_argument("Model::set_parameters: vector size mismatch");
}

TrainStats Model::train_epoch(const Dataset& data, const std::vector<std::size_t>& indices,
                              std::size_t batch_size, double learning_rate) {
    if (indices.empty()) return {};
    if (batch_size == 0) throw std::invalid_argument("train_epoch: batch_size must be > 0");
    order_.assign(indices.begin(), indices.end());
    rng_.shuffle(order_);

    TrainStats out;
    double loss_sum = 0.0;
    for (std::size_t start = 0; start < order_.size(); start += batch_size) {
        const std::size_t* batch_idx = order_.data() + start;
        const std::size_t count = std::min(order_.size() - start, batch_size);
        data.gather_into(batch_idx, count, batch_);
        data.gather_labels_into(batch_idx, count, batch_labels_);

        zero_grad();
        const Tensor& logits = forward(batch_, /*training=*/true);
        const double loss = loss_.forward(logits, batch_labels_);
        backward(loss_.gradient());
        sgd_step(learning_rate);

        loss_sum += loss * static_cast<double>(count);
        out.samples += count;
    }
    out.mean_loss = loss_sum / static_cast<double>(out.samples);
    return out;
}

void Model::evaluate_batches(const Dataset& data, const std::vector<std::size_t>& indices,
                             std::size_t batch_size, std::size_t batch_lo,
                             std::size_t batch_hi, EvalBatch* out) {
    if (batch_size == 0)
        throw std::invalid_argument("evaluate_batches: batch_size must be > 0");
    for (std::size_t bi = batch_lo; bi < batch_hi; ++bi) {
        const std::size_t start = bi * batch_size;
        if (start >= indices.size()) break;
        const std::size_t* batch_idx = indices.data() + start;
        const std::size_t count = std::min(indices.size() - start, batch_size);
        data.gather_labels_into(batch_idx, count, batch_labels_);
        for (std::size_t lo = 0; lo < count; lo += kEvalSlice) {
            const std::size_t rows = std::min(count - lo, kEvalSlice);
            data.gather_into(batch_idx + lo, rows, batch_);
            const Tensor& logits = forward(batch_, /*training=*/false);
            const std::size_t classes = logits.size() / rows;
            if (lo == 0) eval_logits_.reshape_to({count, classes});
            std::copy(logits.data(), logits.data() + logits.size(),
                      eval_logits_.data() + lo * classes);
        }
        EvalBatch record;
        record.mean_loss = loss_.forward(eval_logits_, batch_labels_);
        record.hits = loss_.hits();
        record.samples = count;
        out[bi] = record;
    }
}

EvalStats reduce_eval_batches(const std::vector<EvalBatch>& batches) {
    EvalStats out;
    double loss_sum = 0.0;
    std::size_t hits = 0;
    for (const EvalBatch& b : batches) {
        loss_sum += b.mean_loss * static_cast<double>(b.samples);
        hits += b.hits;
        out.samples += b.samples;
    }
    out.mean_loss = loss_sum / static_cast<double>(out.samples);
    out.accuracy = static_cast<double>(hits) / static_cast<double>(out.samples);
    return out;
}

EvalStats Model::evaluate(const Dataset& data, const std::vector<std::size_t>& indices) {
    std::vector<std::size_t> all;
    if (indices.empty()) {
        all.resize(data.size());
        std::iota(all.begin(), all.end(), std::size_t{0});
    }
    const std::vector<std::size_t>& idx = indices.empty() ? all : indices;
    const std::size_t batches = (idx.size() + kEvalBatch - 1) / kEvalBatch;
    std::vector<EvalBatch> records(batches);
    evaluate_batches(data, idx, kEvalBatch, 0, batches, records.data());
    return reduce_eval_batches(records);
}

} // namespace fmore::ml
