#include "fmore/ml/model.hpp"

#include <stdexcept>

namespace fmore::ml {

Model::Model(std::uint64_t seed) : rng_(seed) {}

// Moves must re-attach: stochastic layers hold a pointer to the owning
// model's RNG member, whose address changes with the object.
Model::Model(Model&& other) noexcept
    : layers_(std::move(other.layers_)),
      rng_(other.rng_),
      loss_(std::move(other.loss_)),
      acts_(std::move(other.acts_)),
      grads_(std::move(other.grads_)) {
    reattach_layers();
}

Model& Model::operator=(Model&& other) noexcept {
    if (this != &other) {
        layers_ = std::move(other.layers_);
        rng_ = other.rng_;
        loss_ = std::move(other.loss_);
        acts_ = std::move(other.acts_);
        grads_ = std::move(other.grads_);
        reattach_layers();
    }
    return *this;
}

void Model::reattach_layers() {
    for (auto& layer : layers_) layer->attach_rng(&rng_);
}

void Model::add(std::unique_ptr<Layer> layer) {
    layer->initialize(rng_);
    layer->attach_rng(&rng_);
    layers_.push_back(std::move(layer));
}

Model Model::clone() const {
    Model copy(0);
    copy.rng_ = rng_;
    copy.loss_ = loss_;
    copy.layers_.reserve(layers_.size());
    for (const auto& layer : layers_) copy.layers_.push_back(layer->clone());
    copy.reattach_layers();
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

std::vector<ParamBlock> Model::all_parameters() {
    std::vector<ParamBlock> blocks;
    for (auto& layer : layers_) {
        for (const ParamBlock& block : layer->parameters()) blocks.push_back(block);
    }
    return blocks;
}

void Model::zero_grad() {
    for (const ParamBlock& block : all_parameters()) {
        for (float& g : *block.grads) g = 0.0F;
    }
}

void Model::sgd_step(double learning_rate) {
    const auto lr = static_cast<float>(learning_rate);
    for (const ParamBlock& block : all_parameters()) {
        for (std::size_t i = 0; i < block.values->size(); ++i) {
            (*block.values)[i] -= lr * (*block.grads)[i];
        }
    }
}

std::size_t Model::parameter_count() {
    std::size_t total = 0;
    for (const ParamBlock& block : all_parameters()) total += block.values->size();
    return total;
}

std::vector<float> Model::get_parameters() {
    std::vector<float> flat;
    flat.reserve(parameter_count());
    for (const ParamBlock& block : all_parameters()) {
        flat.insert(flat.end(), block.values->begin(), block.values->end());
    }
    return flat;
}

void Model::set_parameters(const std::vector<float>& flat) {
    std::size_t offset = 0;
    for (auto& layer : layers_) {
        for (const ParamBlock& block : layer->parameters()) {
            if (offset + block.values->size() > flat.size())
                throw std::invalid_argument("Model::set_parameters: vector too short");
            for (std::size_t i = 0; i < block.values->size(); ++i) {
                (*block.values)[i] = flat[offset + i];
            }
            offset += block.values->size();
        }
    }
    if (offset != flat.size())
        throw std::invalid_argument("Model::set_parameters: vector size mismatch");
}

TrainStats Model::train_epoch(const Dataset& data, const std::vector<std::size_t>& indices,
                              std::size_t batch_size, double learning_rate) {
    if (indices.empty()) return {};
    if (batch_size == 0) throw std::invalid_argument("train_epoch: batch_size must be > 0");
    std::vector<std::size_t> order = indices;
    rng_.shuffle(order);

    TrainStats out;
    double loss_sum = 0.0;
    for (std::size_t start = 0; start < order.size(); start += batch_size) {
        const std::size_t end = std::min(order.size(), start + batch_size);
        const std::vector<std::size_t> batch_idx(order.begin() + static_cast<std::ptrdiff_t>(start),
                                                 order.begin() + static_cast<std::ptrdiff_t>(end));
        const Tensor batch = data.gather(batch_idx);
        const std::vector<int> labels = data.gather_labels(batch_idx);

        zero_grad();
        const Tensor& logits = forward(batch, /*training=*/true);
        const double loss = loss_.forward(logits, labels);
        backward(loss_.backward());
        sgd_step(learning_rate);

        loss_sum += loss * static_cast<double>(batch_idx.size());
        out.samples += batch_idx.size();
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
        const std::size_t end = std::min(indices.size(), start + batch_size);
        if (start >= end) break;
        const std::vector<std::size_t> batch_idx(
            indices.begin() + static_cast<std::ptrdiff_t>(start),
            indices.begin() + static_cast<std::ptrdiff_t>(end));
        const Tensor batch = data.gather(batch_idx);
        const std::vector<int> labels = data.gather_labels(batch_idx);
        const Tensor& logits = forward(batch, /*training=*/false);
        EvalBatch record;
        record.mean_loss = loss_.forward(logits, labels);
        const std::vector<int> preds = loss_.predictions();
        for (std::size_t i = 0; i < preds.size(); ++i) {
            if (preds[i] == labels[i]) ++record.hits;
        }
        record.samples = batch_idx.size();
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
    std::vector<std::size_t> idx = indices;
    if (idx.empty()) {
        idx.resize(data.size());
        for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    }
    const std::size_t batches = (idx.size() + kEvalBatch - 1) / kEvalBatch;
    std::vector<EvalBatch> records(batches);
    evaluate_batches(data, idx, kEvalBatch, 0, batches, records.data());
    return reduce_eval_batches(records);
}

} // namespace fmore::ml
