#pragma once

#include <memory>
#include <vector>

#include "fmore/ml/dataset.hpp"
#include "fmore/ml/layer.hpp"
#include "fmore/ml/loss.hpp"

namespace fmore::ml {

/// Metrics from one local training epoch.
struct TrainStats {
    double mean_loss = 0.0;
    std::size_t samples = 0;
};

/// Metrics from one evaluation pass.
struct EvalStats {
    double mean_loss = 0.0;
    double accuracy = 0.0;
    std::size_t samples = 0;
};

/// Evaluation minibatch size. One definition shared by `Model::evaluate`
/// and the coordinator's parallel evaluator. Batches fix the reduction:
/// each batch's mean loss is one term `reduce_eval_batches` sums, and batch
/// boundaries are part of the serial-vs-parallel bit-identity contract, so
/// the partitioning must never fork.
inline constexpr std::size_t kEvalBatch = 128;

/// Rows per forward call inside an evaluation batch: the default training
/// minibatch (`CoordinatorConfig::batch_size`). Slices fix the footprint:
/// `Model::evaluate_batches` runs a batch through the model in slices of at
/// most this many rows, so evaluating grows no activation slot, layer cache
/// or gathered batch past what training already holds. Every layer computes
/// each sample's row on its own, so the slices' logits are the whole
/// batch's, bit for bit.
inline constexpr std::size_t kEvalSlice = 16;

/// Raw sums of one evaluation minibatch — the parallel evaluator's unit of
/// work. Batch records are reduced in fixed batch order so totals are
/// bit-identical no matter how batches were distributed over workers.
struct EvalBatch {
    double mean_loss = 0.0;
    std::size_t hits = 0;
    std::size_t samples = 0;
};

/// Sequential container of layers with the flat-parameter interface FedAvg
/// needs (Eq. 3 of the paper averages whole parameter vectors).
class Model {
public:
    explicit Model(std::uint64_t seed = 42);
    Model(Model&& other) noexcept;
    Model& operator=(Model&& other) noexcept;

    /// Append a layer; it is initialized immediately from the model RNG.
    void add(std::unique_ptr<Layer> layer);

    /// Deep copy: layers (parameters, gradients, caches) and the RNG state,
    /// with the copies re-attached to the new model's own RNG. The backbone
    /// of round-level parallelism: each worker trains its own clone.
    [[nodiscard]] Model clone() const;

    /// Reset the model RNG to a fresh seed. Per-client training streams in
    /// the parallel coordinator are derived this way, so a client's local
    /// SGD (minibatch shuffles, dropout masks) is a pure function of
    /// (global parameters, client seed) — independent of which thread runs
    /// it or what trained before.
    void reseed(std::uint64_t seed);

    /// Run the layer stack. The returned reference points into the model's
    /// persistent activation chain (one reused slot per layer) and is valid
    /// until the next forward call; copy it to keep it.
    [[nodiscard]] const Tensor& forward(const Tensor& input, bool training);
    /// Accumulate every layer's parameter gradients for the last forward.
    /// The first layer runs `Layer::backward_params`: the gradient w.r.t.
    /// the model input is never computed.
    void backward(const Tensor& grad_loss);
    void zero_grad();
    /// Vanilla SGD update: w -= lr * grad (paper Eq. 2, eta = step size).
    void sgd_step(double learning_rate);

    [[nodiscard]] std::size_t parameter_count();
    [[nodiscard]] std::vector<float> get_parameters();
    /// `get_parameters` into a caller-owned vector whose storage is reused.
    void get_parameters_into(std::vector<float>& flat);
    void set_parameters(const std::vector<float>& flat);

    /// One local epoch of minibatch SGD over the given sample indices
    /// (shuffled internally).
    TrainStats train_epoch(const Dataset& data, const std::vector<std::size_t>& indices,
                           std::size_t batch_size, double learning_rate);

    /// Loss/accuracy over the given indices (all samples when empty).
    EvalStats evaluate(const Dataset& data, const std::vector<std::size_t>& indices = {});

    /// Evaluate minibatches [batch_lo, batch_hi) of `indices` (split into
    /// `batch_size`-sample batches, last one ragged) into
    /// `out[batch_lo..batch_hi)`. `evaluate` == evaluate_batches over the
    /// whole range + `reduce_eval_batches`; coordinators call this from
    /// several workers (each with its own model clone) over disjoint
    /// chunks. Each batch runs forward in `kEvalSlice`-row slices whose
    /// logits are copied into one [batch, classes] buffer, and the loss
    /// sees that buffer once: the record equals a whole-batch forward's
    /// bit for bit.
    void evaluate_batches(const Dataset& data, const std::vector<std::size_t>& indices,
                          std::size_t batch_size, std::size_t batch_lo,
                          std::size_t batch_hi, EvalBatch* out);

    [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }

private:
    /// Rebuild `params_` from this model's own layers.
    void collect_parameters();
    void reattach_layers();

    std::vector<std::unique_ptr<Layer>> layers_;
    stats::Rng rng_;
    SoftmaxCrossEntropy loss_;
    /// Every layer's parameter blocks in layer order. They point into the
    /// heap-allocated layers, so moves carry the list along; `add` and
    /// `clone` rebuild it, never copy it.
    std::vector<ParamBlock> params_;
    /// Persistent activation slots (one per layer) and input-gradient slots
    /// (one per layer after the first), reused across forward/backward
    /// calls, plus the training and evaluation loops' shuffled order,
    /// gathered batch and labels, and the logits of the evaluation batch
    /// its slices fill. Pure scratch: moves carry it along, clones start
    /// fresh.
    std::vector<Tensor> acts_;
    std::vector<Tensor> grads_;
    std::vector<std::size_t> order_;
    Tensor batch_;
    std::vector<int> batch_labels_;
    Tensor eval_logits_;
};

/// Fold per-batch eval records (in batch order) into totals — the exact
/// accumulation the serial `Model::evaluate` performs, so parallel and
/// serial evaluation agree bit-for-bit.
[[nodiscard]] EvalStats reduce_eval_batches(const std::vector<EvalBatch>& batches);

} // namespace fmore::ml
