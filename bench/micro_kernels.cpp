// micro_kernels: the performance ledger of the compute substrate. Measures
//  (1) the ml::gemm micro-kernel against the naive triple loop (GFLOP/s),
//  (2) Conv2d / Dense / Lstm forward+backward at the paper's MNIST/CIFAR/
//      HPNews shapes, against the textbook loops of the reference layers
//      (fmore_reference, fmore/reference/naive_layers.hpp), with each conv
//      row's backward also timed as its two kernels, the weight gradient
//      and the input gradient,
//  (2b) the elementwise stack (ReLU, pool, dropout) through both layer
//      APIs, and ReLU alone, forward and backward apart, against the
//      textbook rule,
//  (2c) the Dense forward of the fl_cifar model's hidden layer (256 -> 96)
//      on a 16-row minibatch, y^T = W x^T, against the old layout it
//      replaced there (W transposed every call, then x W^T),
//  (3) one training step (forward + loss + backward + SGD) of the deep CNN
//      on a CIFAR-shaped minibatch against its reference twin
//      (`reference::naive_cnn_deep`), with the sparse gradients ReLU and
//      Dropout really produce, the evaluation of one B128 batch (the
//      evaluation batch) by both models as a round runs it
//      (`Model::evaluate_batches`, forward in 16-row slices), and the
//      model's sliced pass against the whole-batch pass it replaced,
//  (4) the market's shard pass on one 250k-row shard of the `wire_1m`
//      world (N = 1M over 4 shards, alpha=25 scaled product over data and
//      category, additive cost, theta ~ U[0.5, 1.5], K = 32), on the
//      narrowed slice a forked worker holds (theta, data size and its cap,
//      category, draw bytes): the drift, collect and head row kernels next
//      to their per-row references, a worker's whole head pass next to
//      the frame composition that prices every row, and a worker's round
//      (drift inside the head pass) next to the two-pass round (the whole
//      shard drifted, then the head pass); each row reports the median and
//      quartiles of its repetitions,
//  (5) the world builds of the benchmark lanes, `wire_1m`'s 1M-node store
//      and `fl_cifar`'s 10,500-sample image set, on the pool
//      (`stats::draw_in_chunks`) against the serial loops they replaced
//      (fmore/reference/serial_world.hpp), at the round threads the machine
//      grants,
//  (6) end-to-end round time of the `paper/fig04` scenario at 1/2/4/8
//      round threads,
// and writes everything to a machine-readable BENCH_kernels.json, stamped
// with the build type, compiler and flags, so future PRs have a perf
// trajectory to regress against. Every timed row records the median and
// quartiles of its repetitions (the round rows: one mean each).
//
//   micro_kernels [--smoke] [--out path.json]
//
// --smoke shrinks repetitions (CI); the JSON is written either way. Exits 1
// when a `layers` row, the `dense` row, the training step or the sliced
// evaluation forward has a production path slower than its reference twin
// at the median (the elementwise row compares two APIs, not two kernels,
// and is not gated), or when a `layers` row, the `relu` row, the `dense`
// row, the sliced evaluation pass, a `market` kernel or a pooled world
// build differs from its reference in any bit, the world's generator state
// included. Market, world, relu and sliced evaluation speed are recorded,
// not gated. The drift loop vectorizes only with 64-bit vector multiplies
// (AVX-512DQ's `vpmullq`), and the `FMORE_NATIVE_ARCH` build gives the row
// kernels 64-byte vectors only where the host has AVX-512; elsewhere they
// run narrower (the drift scalar), and a row may read slower than its
// per-row reference. A world build on one core resolves one round thread
// and runs its serial loop.
//
// The elementwise, relu and evaluation rows cycle through 8 distinct
// inputs: on one fixed input the branch predictor learns a data-dependent
// pattern (MaxPool2d's window winners, Dropout's mask) and the row
// under-reports what a fresh minibatch costs.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/core/scenarios.hpp"
#include "fmore/fl/metrics.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/ml/activations.hpp"
#include "fmore/ml/conv2d.hpp"
#include "fmore/ml/dense.hpp"
#include "fmore/ml/dropout.hpp"
#include "fmore/ml/gemm.hpp"
#include "fmore/ml/loss.hpp"
#include "fmore/ml/lstm.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/pooling.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/ml/tensor.hpp"
#include "fmore/reference/naive_layers.hpp"
#include "fmore/reference/serial_world.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/stats/rng.hpp"
#include "fmore/util/thread_pool.hpp"

#ifdef _WIN32
#include <cstdlib>
static void set_env(const char* k, const char* v) { _putenv_s(k, v); }
#else
#include <cstdlib>
static void set_env(const char* k, const char* v) { setenv(k, v, 1); }
#endif

namespace {

using namespace fmore;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Median and quartiles of a row's repetitions, each the linear
/// interpolation between the two nearest order statistics.
struct Spread {
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

Spread spread_of(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const auto at = [&samples](double p) {
        const double pos = p * static_cast<double>(samples.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, samples.size() - 1);
        return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
    };
    return {at(0.25), at(0.5), at(0.75)};
}

/// Time `fn` over `reps` repetitions: the spread of its microseconds.
template <typename Fn>
Spread spread_us(std::size_t reps, Fn&& fn) {
    std::vector<double> us;
    us.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
        const auto start = clock_type::now();
        fn();
        us.push_back(seconds_since(start) * 1e6);
    }
    return spread_of(std::move(us));
}

/// Runs `fn` once, appending its milliseconds to `samples`.
template <typename Fn>
void time_ms(std::vector<double>& samples, Fn&& fn) {
    const auto start = clock_type::now();
    fn();
    samples.push_back(seconds_since(start) * 1e3);
}

/// Time `a(r)` and `b(r)` alternately for r in [0, reps), so a machine that
/// speeds up or slows down during the row moves both alike: the spreads of
/// their microseconds.
template <typename A, typename B>
std::pair<Spread, Spread> alternate_us(std::size_t reps, A&& a, B&& b) {
    std::vector<double> a_us;
    std::vector<double> b_us;
    for (std::size_t r = 0; r < reps; ++r) {
        time_ms(a_us, [&] { a(r); });
        time_ms(b_us, [&] { b(r); });
    }
    for (std::vector<double>* samples : {&a_us, &b_us})
        for (double& ms : *samples) ms *= 1e3;
    return {spread_of(std::move(a_us)), spread_of(std::move(b_us))};
}

/// `"<key>_us": median, "<key>_q1_us": q1, "<key>_q3_us": q3` for a ledger
/// row.
std::string spread_json(const std::string& key, const Spread& s) {
    char buf[192];
    std::snprintf(buf, sizeof buf, "\"%s_us\": %.4g, \"%s_q1_us\": %.4g, \"%s_q3_us\": %.4g",
                  key.c_str(), s.median, key.c_str(), s.q1, key.c_str(), s.q3);
    return buf;
}

std::vector<float> random_vec(std::size_t n, stats::Rng& rng) {
    std::vector<float> out(n);
    for (float& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return out;
}

/// Naive reference GEMM (the kernel's semantics, textbook loops).
void naive_gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
                const float* b, float* c) {
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = c[i * n + j];
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

struct GemmResult {
    std::size_t m, n, k;
    Spread naive_us, gemm_us;

    /// GFLOP/s at the median time.
    [[nodiscard]] double gflops(const Spread& us) const {
        return 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k)
               / us.median / 1e3;
    }
};

GemmResult bench_gemm(std::size_t m, std::size_t n, std::size_t k, std::size_t reps) {
    stats::Rng rng(42);
    const std::vector<float> a = random_vec(m * k, rng);
    const std::vector<float> b = random_vec(k * n, rng);
    std::vector<float> c(m * n, 0.0F);
    const Spread naive =
        spread_us(reps, [&] { naive_gemm(m, n, k, a.data(), b.data(), c.data()); });
    const Spread fast = spread_us(reps, [&] {
        ml::gemm_acc(m, n, k, a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
                     static_cast<std::ptrdiff_t>(n), c.data(),
                     static_cast<std::ptrdiff_t>(n));
    });
    return {m, n, k, naive, fast};
}

struct LayerResult {
    std::string name;
    std::string shape;
    Spread fwd_naive, fwd_gemm;
    Spread bwd_naive, bwd_gemm;
    /// Conv2d rows: backward's two kernels timed apart, the weight gradient
    /// (`backward_params`) and the input gradient (`conv2d_input_grad` on
    /// the layer's weights).
    std::optional<Spread> wgrad_gemm, igrad_gemm;
    /// One fresh forward + backward of both layers from zeroed gradients:
    /// output, input gradient and parameter gradients equal in every bit.
    bool identical = false;
};

bool same_floats(const float* a, const float* b, std::size_t n) {
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Whether `fast` and `naive` (holding the same parameters) give the same
/// output, input gradient and parameter gradients for one pass over
/// `input` with output gradient `gy`, every gradient starting at zero.
bool same_pass(ml::Layer& fast, ml::Layer& naive, const ml::Tensor& input,
               const ml::Tensor& gy) {
    std::vector<ml::Tensor> outs;
    std::vector<ml::Tensor> grads;
    std::vector<std::vector<float>> params;
    for (ml::Layer* layer : {&fast, &naive}) {
        for (const ml::ParamBlock& block : layer->parameters())
            std::fill(block.grads->begin(), block.grads->end(), 0.0F);
        outs.push_back(layer->forward(input, true));
        grads.push_back(layer->backward(gy));
        for (const ml::ParamBlock& block : layer->parameters()) params.push_back(*block.grads);
    }
    bool same = outs[0].shape() == outs[1].shape()
                && same_floats(outs[0].data(), outs[1].data(), outs[0].size())
                && grads[0].shape() == grads[1].shape()
                && same_floats(grads[0].data(), grads[1].data(), grads[0].size());
    const std::size_t blocks = params.size() / 2;
    for (std::size_t p = 0; p < blocks; ++p) {
        same = same && params[p].size() == params[blocks + p].size()
               && same_floats(params[p].data(), params[blocks + p].data(), params[p].size());
    }
    return same;
}

/// Forward+backward timings of one production layer and of its reference
/// twin holding the same parameters, on the same input and output
/// gradient, and whether one pass of the two agrees in every bit.
template <typename Layer, typename NaiveLayer, typename... Args>
LayerResult bench_layer(const std::string& name, const std::string& shape,
                        const std::vector<std::size_t>& in_shape, std::size_t reps,
                        Args... args) {
    stats::Rng rng(7);
    Layer fast_layer(args...);
    fast_layer.initialize(rng);
    NaiveLayer naive_layer(args...);
    reference::copy_parameters(fast_layer, naive_layer);
    ml::Tensor input(in_shape);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    ml::Tensor gy(fast_layer.forward(input, true).shape());
    for (std::size_t i = 0; i < gy.size(); ++i)
        gy[i] = static_cast<float>(rng.uniform(-0.1, 0.1));

    LayerResult out;
    out.name = name;
    out.shape = shape;
    out.identical = same_pass(fast_layer, naive_layer, input, gy);
    for (const bool naive : {true, false}) {
        ml::Layer& layer = naive ? static_cast<ml::Layer&>(naive_layer) : fast_layer;
        ml::Tensor y;
        (naive ? out.fwd_naive : out.fwd_gemm) =
            spread_us(reps, [&] { y = layer.forward(input, true); });
        (naive ? out.bwd_naive : out.bwd_gemm) =
            spread_us(reps, [&] { ml::Tensor gx = layer.backward(gy); });
    }
    if constexpr (std::is_same_v<Layer, ml::Conv2d>) {
        const auto [in_c, out_c, k] = std::tuple{args...};
        ml::ConvShape conv;
        conv.in_c = in_c;
        conv.h = in_shape[2];
        conv.w = in_shape[3];
        conv.kh = k;
        conv.kw = k;
        const std::vector<float>& weight = *fast_layer.parameters()[0].values;
        std::vector<float> scratch;
        std::vector<float> gx(input.size());
        out.wgrad_gemm = spread_us(reps, [&] { fast_layer.backward_params(gy); });
        out.igrad_gemm = spread_us(reps, [&] {
            ml::conv2d_input_grad(gy.data(), weight.data(), out_c, conv, in_shape[0], scratch,
                                  gx.data());
        });
    }
    return out;
}

struct ElementwiseResult {
    std::string shape;
    Spread alloc_us{};  ///< allocating forward/backward API (pre-arena)
    Spread arena_us{};  ///< forward_into/backward_into over reused slots
};

/// Distinct inputs a row cycles through, so no branch predictor can learn
/// one input's data-dependent pattern.
constexpr std::size_t kDistinctInputs = 8;

/// kDistinctInputs tensors of `shape`, uniform in [-1, 1).
std::vector<ml::Tensor> random_inputs(const std::vector<std::size_t>& shape,
                                      stats::Rng& rng) {
    std::vector<ml::Tensor> inputs;
    for (std::size_t k = 0; k < kDistinctInputs; ++k) {
        ml::Tensor t(shape);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        inputs.push_back(std::move(t));
    }
    return inputs;
}

/// The elementwise stack of the paper's CNN blocks (ReLU -> MaxPool ->
/// Dropout), fwd+bwd, via the allocating Layer API versus the in-place
/// protocol over persistent output slots — the "scratch arena" follow-up
/// from the kernel PR. Arithmetic is identical; the delta is pure
/// allocator traffic.
ElementwiseResult bench_elementwise(std::size_t reps) {
    stats::Rng rng(11);
    ml::ReLU relu;
    ml::MaxPool2d pool;
    ml::Dropout dropout(0.25);
    stats::Rng dropout_rng(12);
    dropout.attach_rng(&dropout_rng);

    const std::vector<ml::Tensor> inputs = random_inputs({16, 8, 12, 12}, rng);
    std::size_t next = 0;

    ElementwiseResult out;
    out.shape = "B16 8x12x12, ReLU+pool2x2+drop.25";

    out.alloc_us = spread_us(reps, [&] {
        const ml::Tensor& input = inputs[next++ % kDistinctInputs];
        const ml::Tensor a = relu.forward(input, true);
        const ml::Tensor b = pool.forward(a, true);
        const ml::Tensor c = dropout.forward(b, true);
        const ml::Tensor gc = dropout.backward(c);
        const ml::Tensor gb = pool.backward(gc);
        const ml::Tensor ga = relu.backward(gb);
    });

    ml::Tensor a, b, c, gc, gb, ga; // persistent slots: the arena
    out.arena_us = spread_us(reps, [&] {
        relu.forward_into(inputs[next++ % kDistinctInputs], a, true);
        pool.forward_into(a, b, true);
        dropout.forward_into(b, c, true);
        dropout.backward_into(c, gc);
        pool.backward_into(gc, gb);
        relu.backward_into(gb, ga);
    });
    return out;
}

struct ReluResult {
    std::string shape;
    Spread fwd_us{};
    Spread bwd_us{};
    /// One pass on an input holding -0, +0, infinities and NaNs gives the
    /// textbook rule's bits: x < 0 ? 0 : x forward, x <= 0 ? 0 : g back.
    bool identical = false;
};

/// ReLU alone at the fl_cifar model's first ReLU (B16 8x12x12), forward
/// and backward timed apart, each cycling through distinct inputs.
ReluResult bench_relu(std::size_t reps) {
    stats::Rng rng(13);
    const std::vector<ml::Tensor> inputs = random_inputs({16, 8, 12, 12}, rng);
    const std::vector<ml::Tensor> grads = random_inputs({16, 8, 12, 12}, rng);
    ml::ReLU relu;
    ml::Tensor y;
    ml::Tensor gx;

    ReluResult out;
    out.shape = "B16 8x12x12";
    ml::Tensor x = inputs[0];
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float specials[] = {-0.0F, 0.0F, inf, -inf, nan, -nan};
    for (std::size_t i = 0; i < std::size(specials); ++i) x[i * 97] = specials[i];
    const ml::Tensor& g = grads[0];
    relu.forward_into(x, y, true);
    relu.backward_into(g, gx);
    bool same = y.size() == x.size() && gx.size() == x.size();
    for (std::size_t i = 0; same && i < x.size(); ++i) {
        const float want_y = x[i] < 0 ? 0.0F : x[i];
        const float want_gx = x[i] <= 0 ? 0.0F : g[i];
        same = same_floats(&y[i], &want_y, 1) && same_floats(&gx[i], &want_gx, 1);
    }
    out.identical = same;

    std::size_t next = 0;
    out.fwd_us = spread_us(reps, [&] {
        relu.forward_into(inputs[next++ % kDistinctInputs], y, true);
    });
    out.bwd_us = spread_us(reps, [&] { relu.backward_into(grads[next++ % kDistinctInputs], gx); });
    return out;
}

struct ModelPassResult {
    std::string shape;
    Spread naive_us{};
    Spread fast_us{};
};

/// One minibatch step of the fl_cifar model (`make_cnn_deep`, 3x14x14):
/// zero_grad, forward, loss, backward, SGD. The model and its reference
/// twin each train from the same seed on the same batch, so ReLU and
/// Dropout hand the convolutions the sparse gradients of real training.
ModelPassResult bench_train_step(std::size_t reps) {
    stats::Rng data_rng(13);
    const ml::Dataset data = ml::make_synthetic_images(ml::cifar10_spec(16), data_rng);
    std::vector<std::size_t> idx(data.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    const ml::Tensor batch = data.gather(idx);
    const std::vector<int> labels = data.gather_labels(idx);

    ModelPassResult out;
    out.shape = "cnn_deep B16 3x14x14";
    const ml::ImageSpec image{3, 14, 14, data.num_classes};
    for (const bool naive : {true, false}) {
        ml::Model model =
            naive ? reference::naive_cnn_deep(image, 17) : ml::make_cnn_deep(image, 17);
        ml::SoftmaxCrossEntropy loss;
        (naive ? out.naive_us : out.fast_us) = spread_us(reps, [&] {
            model.zero_grad();
            const ml::Tensor& logits = model.forward(batch, /*training=*/true);
            (void)loss.forward(logits, labels);
            model.backward(loss.backward());
            model.sgd_step(0.01);
        });
    }
    return out;
}

/// One evaluation batch of the fl_cifar model as a round runs it:
/// `Model::evaluate_batches` over one `kEvalBatch` batch, gathered and run
/// forward (`training=false`) in `kEvalSlice`-row slices, for the model and
/// for its reference twin (`reference::naive_cnn_deep`) on the same slices,
/// alternating; cycles through 8 batches of a synthetic CIFAR set.
ModelPassResult bench_eval_forward(std::size_t reps) {
    stats::Rng data_rng(14);
    const ml::Dataset data = ml::make_synthetic_images(
        ml::cifar10_spec(kDistinctInputs * ml::kEvalBatch), data_rng);
    std::vector<std::size_t> idx(data.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

    ModelPassResult out;
    out.shape = "cnn_deep B128 3x14x14 eval, 16-row slices";
    const ml::ImageSpec image{3, 14, 14, data.num_classes};
    ml::Model naive = reference::naive_cnn_deep(image, 17);
    ml::Model fast = ml::make_cnn_deep(image, 17);
    std::vector<ml::EvalBatch> records(kDistinctInputs);
    const auto evaluate = [&](ml::Model& model, std::size_t r) {
        const std::size_t b = r % kDistinctInputs;
        model.evaluate_batches(data, idx, ml::kEvalBatch, b, b + 1, records.data());
    };
    std::tie(out.naive_us, out.fast_us) =
        alternate_us(reps, [&](std::size_t r) { evaluate(naive, r); },
                     [&](std::size_t r) { evaluate(fast, r); });
    return out;
}

/// The Dense forward before a 16-row batch ran as y^T = b + W x^T: all of
/// W transposed into `wt` on every call, then y = b + x W^T.
void old_layout_dense_forward(const std::vector<float>& weight, const std::vector<float>& bias,
                              std::size_t in, std::size_t out, const float* x,
                              std::size_t batch, std::vector<float>& wt, float* y) {
    wt.resize(in * out);
    for (std::size_t o = 0; o < out; ++o) {
        for (std::size_t i = 0; i < in; ++i) wt[i * out + o] = weight[o * in + i];
    }
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t o = 0; o < out; ++o) y[b * out + o] = bias[o];
    }
    ml::gemm_acc(batch, out, in, x, static_cast<std::ptrdiff_t>(in), 1, wt.data(),
                 static_cast<std::ptrdiff_t>(out), y, static_cast<std::ptrdiff_t>(out));
}

struct DenseResult {
    std::string shape;
    Spread old_layout_us{};
    Spread fast_us{};
    bool identical = false;
};

/// The fl_cifar model's hidden Dense layer (`make_cnn_deep`'s 256 -> 96)
/// forward on a 16-row minibatch, the rows of a training step or an
/// evaluation slice, against the old layout over the same parameters and
/// inputs, alternating; cycles through 8 distinct inputs.
DenseResult bench_dense(std::size_t reps) {
    constexpr std::size_t kRows = 16;
    constexpr std::size_t kIn = 256;
    constexpr std::size_t kOut = 96;
    stats::Rng rng(15);
    ml::Dense layer(kIn, kOut);
    layer.initialize(rng);
    const std::vector<ml::ParamBlock> params = layer.parameters();
    const std::vector<float>& weight = *params[0].values;
    std::vector<float>& bias = *params[1].values;
    for (float& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const std::vector<ml::Tensor> inputs = random_inputs({kRows, kIn}, rng);

    DenseResult out;
    out.shape = "cnn_deep B16 256 -> 96 fwd";
    std::vector<float> wt;
    std::vector<float> old_y(kRows * kOut);
    ml::Tensor fast_y;
    out.identical = true;
    for (const ml::Tensor& x : inputs) {
        old_layout_dense_forward(weight, bias, kIn, kOut, x.data(), kRows, wt, old_y.data());
        layer.forward_into(x, fast_y, /*training=*/false);
        out.identical = out.identical
                        && std::memcmp(old_y.data(), fast_y.data(),
                                       old_y.size() * sizeof(float)) == 0;
    }
    std::tie(out.old_layout_us, out.fast_us) = alternate_us(
        reps,
        [&](std::size_t r) {
            old_layout_dense_forward(weight, bias, kIn, kOut,
                                     inputs[r % kDistinctInputs].data(), kRows, wt,
                                     old_y.data());
        },
        [&](std::size_t r) {
            layer.forward_into(inputs[r % kDistinctInputs], fast_y, /*training=*/false);
        });
    return out;
}

struct EvalPassResult {
    std::string shape;
    Spread whole_us{};
    Spread sliced_us{};
    bool identical = false;
};

/// The evaluation pass a coordinator worker runs over one `kEvalBatch`
/// batch of the fl_cifar model: `Model::evaluate_batches`, which gathers
/// and runs the batch in `kEvalSlice`-row slices, against the whole-batch
/// pass it replaced (gather 128 rows, one forward, the loss), on two
/// clones of one model, alternating; cycles through 8 batches of a
/// synthetic CIFAR set.
EvalPassResult bench_eval_batches(std::size_t reps) {
    stats::Rng data_rng(16);
    const ml::Dataset data = ml::make_synthetic_images(
        ml::cifar10_spec(kDistinctInputs * ml::kEvalBatch), data_rng);
    std::vector<std::size_t> idx(data.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

    const ml::ImageSpec image{3, 14, 14, data.num_classes};
    const ml::Model model = ml::make_cnn_deep(image, 17);
    ml::Model whole = model.clone();
    ml::Model sliced = model.clone();
    ml::Tensor batch;
    std::vector<int> labels;
    ml::SoftmaxCrossEntropy loss;
    auto whole_batch = [&](std::size_t b) {
        const std::size_t* at = idx.data() + b * ml::kEvalBatch;
        data.gather_into(at, ml::kEvalBatch, batch);
        data.gather_labels_into(at, ml::kEvalBatch, labels);
        ml::EvalBatch record;
        record.mean_loss = loss.forward(whole.forward(batch, /*training=*/false), labels);
        record.hits = loss.hits();
        record.samples = ml::kEvalBatch;
        return record;
    };
    std::vector<ml::EvalBatch> records(kDistinctInputs);

    EvalPassResult out;
    out.shape = "cnn_deep B128 3x14x14, 16-row slices";
    out.identical = true;
    for (std::size_t b = 0; b < kDistinctInputs; ++b) {
        const ml::EvalBatch want = whole_batch(b);
        sliced.evaluate_batches(data, idx, ml::kEvalBatch, b, b + 1, records.data());
        out.identical = out.identical && std::bit_cast<std::uint64_t>(want.mean_loss)
                                             == std::bit_cast<std::uint64_t>(records[b].mean_loss)
                        && want.hits == records[b].hits && want.samples == records[b].samples;
    }
    std::tie(out.whole_us, out.sliced_us) = alternate_us(
        reps, [&](std::size_t r) { (void)whole_batch(r % kDistinctInputs); },
        [&](std::size_t r) {
            const std::size_t b = r % kDistinctInputs;
            sliced.evaluate_batches(data, idx, ml::kEvalBatch, b, b + 1, records.data());
        });
    return out;
}

/// One market row: a shard-pass kernel and its per-row reference, timed
/// on the same shard once per repetition, and whether their outputs agree
/// in every bit.
struct MarketRow {
    std::string name;
    std::string reference;
    std::vector<double> kernel_ms{};
    std::vector<double> reference_ms{};
    bool identical = true;
    std::size_t priced_rows = 0;  ///< head_pass: rows whose ask the kernel computed
};

bool same_bits(const double* a, const double* b, std::size_t n) {
    return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_frames(const auction::BidFrame& a, const auction::BidFrame& b) {
    if (a.rows() != b.rows() || a.dims() != b.dims()) return false;
    for (std::size_t row = 0; row < a.rows(); ++row) {
        if (a.active(row) != b.active(row)
            || !same_bits(a.quality_row(row), b.quality_row(row), a.dims())
            || !same_bits(a.payment(row), b.payment(row))
            || !same_bits(a.score(row), b.score(row)))
            return false;
    }
    return true;
}

/// The per-row quote `collect_bid_rows` replaced: quality_into, the cap
/// clamp, then quote_span, one row at a time.
void per_row_collect(const mec::PopulationStore& store, const mec::QualityLayout& layout,
                     const auction::EquilibriumStrategy& strategy,
                     const mec::Blacklist& banned, auction::BidFrame& frame) {
    const std::size_t dims = layout.size();
    for (std::size_t i = 0; i < store.size(); ++i) {
        if (banned.contains(store.node_offset() + i)) {
            frame.set_active(i, false);
            continue;
        }
        double* q = frame.quality_row(i);
        const double theta = store.theta(i);
        strategy.quality_into(theta, q);
        for (std::size_t d = 0; d < dims; ++d) {
            const double cap = store.column(layout[d])[i];
            if (q[d] > cap) q[d] = cap;
        }
        const auction::EquilibriumStrategy::SealedQuote quote =
            strategy.quote_span(q, dims, theta, auction::PaymentMethod::integral);
        frame.payment(i) = quote.payment;
        frame.score(i) = quote.quality_score - quote.payment;
    }
}

/// The shard head before tie keys went lazy: every active row derives its
/// key before the heap comparison. Its own heap loop, over the market order.
void eager_key_head(const auction::BidFrame& frame, std::size_t node_offset,
                    const auction::TieKeys& keys, std::size_t limit,
                    auction::ShardHead& out) {
    out.clear();
    out.dims = frame.dims();
    std::vector<auction::HeadRow>& heap = out.rows;
    const auction::MarketOrder better;
    for (std::size_t row = 0; row < frame.rows(); ++row) {
        if (!frame.active(row)) continue;
        const std::size_t global = node_offset + row;
        const auction::HeadRow cand{global, frame.score(row), keys.key(global),
                                    frame.payment(row)};
        if (heap.size() < limit) {
            heap.push_back(cand);
            std::push_heap(heap.begin(), heap.end(), better);
        } else if (better(cand, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), better);
            heap.back() = cand;
            std::push_heap(heap.begin(), heap.end(), better);
        }
    }
    std::sort(heap.begin(), heap.end(), better);
    out.quality.resize(heap.size() * out.dims);
    for (std::size_t r = 0; r < heap.size(); ++r) {
        const double* q = frame.quality_row(heap[r].node - node_offset);
        std::copy(q, q + out.dims, out.quality.begin() + r * out.dims);
    }
}

bool same_heads(const auction::ShardHead& a, const auction::ShardHead& b) {
    if (a.dims != b.dims || a.rows.size() != b.rows.size()
        || !same_bits(a.quality.data(), b.quality.data(), a.quality.size()))
        return false;
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        if (a.rows[r].node != b.rows[r].node || a.rows[r].key != b.rows[r].key
            || !same_bits(a.rows[r].score, b.rows[r].score)
            || !same_bits(a.rows[r].payment, b.rows[r].payment))
            return false;
    }
    return true;
}

/// The shard pass of one `wire_1m` worker, on one core, over the narrowed
/// slice it holds: drift, collect and head, each kernel against its
/// reference. Kernel and reference run in alternation, one round each per
/// repetition, the references on a full-width twin of the slice, so both
/// see the same drifted state.
std::vector<MarketRow> bench_market(std::size_t reps, std::size_t& shard_rows) {
    constexpr std::size_t kNodes = 1'000'000;
    constexpr std::size_t kShards = 4;
    constexpr std::size_t kWinners = 32;
    constexpr double kDataHi = 150.0;
    const std::vector<stats::MinMaxNormalizer> norms{stats::MinMaxNormalizer(0.0, kDataHi),
                                                     stats::MinMaxNormalizer(0.0, 1.0)};
    const auction::ScaledProductScoring scoring(25.0, 2, norms);
    const auction::AdditiveCost cost({6.0 / kDataHi, 2.0});
    const stats::UniformDistribution theta(0.5, 1.5);
    auction::EquilibriumConfig eq;
    eq.num_bidders = kNodes;
    eq.num_winners = kWinners;
    const auction::EquilibriumStrategy strategy =
        auction::EquilibriumSolver(scoring, cost, theta, {1.0, 0.05}, {kDataHi, 1.0}, eq)
            .solve();

    mec::PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    mec::SyntheticDataSpec data;
    data.data_hi = kDataHi;
    stats::Rng world_rng(0x5ca1e001ULL);
    const mec::PopulationStore world(kNodes, data, theta, spec, world_rng);
    const std::vector<std::size_t> cuts = mec::PopulationStore::even_boundaries(kNodes, kShards);
    const mec::QualityLayout layout{mec::ResourceDim::data_size,
                                    mec::ResourceDim::category_proportion};
    // The narrowed slice a forked worker holds: the second shard's rows,
    // only the columns a bid over the layout reads and their drift needs.
    mec::PopulationStore shard = world.slice(cuts[0], cuts[1], layout);
    mec::PopulationStore reference = world.slice(cuts[0], cuts[1]);
    shard_rows = shard.size();

    const mec::Blacklist banned;
    auction::BidFrame frame;
    auction::BidFrame reference_frame;
    std::vector<const double*> columns;
    stats::Rng drift_rng(0xd41f7ULL);
    stats::Rng reference_rng(0xd41f7ULL);
    // The wire worker's configuration: one round thread per process.
    set_env("FMORE_ROUND_THREADS", "1");
    MarketRow drift{"drift", "evolve_serial: the per-node loop, all nine columns"};
    MarketRow collect{"collect", "quality_into, cap clamp, quote_span per row"};
    for (std::size_t r = 0; r < reps; ++r) {
        time_ms(drift.kernel_ms, [&] { shard.evolve(drift_rng); });
        time_ms(drift.reference_ms, [&] { reference.evolve_serial(reference_rng); });

        time_ms(collect.kernel_ms, [&] {
            frame.reset(shard.size(), layout.size());
            mec::collect_bid_rows(shard, 0, shard.size(), layout, strategy, scoring, true,
                                  auction::PaymentMethod::integral, banned, frame, 0,
                                  columns, /*parallel=*/false);
        });
        time_ms(collect.reference_ms, [&] {
            reference_frame.reset(reference.size(), layout.size());
            per_row_collect(reference, layout, strategy, banned, reference_frame);
        });
        collect.identical = collect.identical && same_frames(frame, reference_frame);
    }
    set_env("FMORE_ROUND_THREADS", "0");
    // The columns the slice keeps, against the per-node drift of all nine.
    drift.identical = shard.salt_history() == reference.salt_history()
                      && same_bits(shard.thetas().data(), reference.thetas().data(),
                                   shard.size());
    for (const mec::ResourceDim dim : layout) {
        drift.identical = drift.identical
                          && same_bits(shard.column(dim).data(), reference.column(dim).data(),
                                       shard.size());
    }

    frame.set_scored(true);
    auction::TieKeys keys;
    keys.salted = true;
    keys.salt = 0x7e1eULL;
    MarketRow head{"head", "every active row hashes its tie key"};
    auction::ShardHead kernel_head;
    auction::ShardHead reference_head;
    for (std::size_t r = 0; r < reps; ++r) {
        time_ms(head.kernel_ms, [&] {
            auction::collect_shard_head(frame, shard.node_offset(), keys, kWinners,
                                        kernel_head);
        });
        time_ms(head.reference_ms, [&] {
            eager_key_head(frame, shard.node_offset(), keys, kWinners, reference_head);
        });
        head.identical = head.identical && same_heads(kernel_head, reference_head);
    }

    // A worker's whole head pass, which prices only the blocks whose
    // at-cost bounds can enter its head, against the frame composition that
    // prices every row. Each repetition drifts the slice first (untimed),
    // as each round does; the worker keeps K + 1 rows.
    MarketRow head_pass{"head_pass",
                        "collect_bid_rows + collect_shard_head, every row priced"};
    auction::StreamingHeadMerge merge;
    std::size_t priced = 0;  // the last repetition's
    stats::Rng head_rng(0x4ead5ULL);
    for (std::size_t r = 0; r < reps; ++r) {
        shard.evolve(head_rng);
        time_ms(head_pass.kernel_ms, [&] {
            priced = mec::collect_head_rows(shard, 0, shard.size(), layout, strategy, scoring,
                                            true, auction::PaymentMethod::integral, banned,
                                            nullptr, keys, kWinners + 1, columns, merge,
                                            kernel_head);
        });
        time_ms(head_pass.reference_ms, [&] {
            frame.reset(shard.size(), layout.size());
            mec::collect_bid_rows(shard, 0, shard.size(), layout, strategy, scoring, true,
                                  auction::PaymentMethod::integral, banned, frame, 0,
                                  columns, /*parallel=*/false);
            frame.set_scored(true);
            auction::collect_shard_head(frame, shard.node_offset(), keys, kWinners + 1,
                                        reference_head);
        });
        head_pass.identical = head_pass.identical && same_heads(kernel_head, reference_head);
    }
    head_pass.priced_rows = priced;

    // A worker's round as `worker_main` runs it, one pass in which each
    // block of rows drifts just before its quote, against the two-pass
    // round it replaced (the whole shard drifted, then the head pass), on
    // twin shards given the same salts. Both must end with the same head,
    // columns and salt history.
    MarketRow worker_round{"worker_round", "evolve_with_salt, then collect_head_rows"};
    mec::PopulationStore twin = shard;
    stats::Rng salt_rng(0x5a175ULL);
    set_env("FMORE_ROUND_THREADS", "1");
    for (std::size_t r = 0; r < reps; ++r) {
        const std::uint64_t salt = salt_rng.engine()();
        time_ms(worker_round.kernel_ms, [&] {
            mec::collect_head_rows(shard, salt, layout, strategy, scoring, true,
                                   auction::PaymentMethod::integral, banned, nullptr, keys,
                                   kWinners + 1, columns, merge, kernel_head);
        });
        time_ms(worker_round.reference_ms, [&] {
            twin.evolve_with_salt(salt);
            mec::collect_head_rows(twin, 0, twin.size(), layout, strategy, scoring, true,
                                   auction::PaymentMethod::integral, banned, nullptr, keys,
                                   kWinners + 1, columns, merge, reference_head);
        });
        worker_round.identical =
            worker_round.identical && same_heads(kernel_head, reference_head);
    }
    set_env("FMORE_ROUND_THREADS", "0");
    worker_round.identical =
        worker_round.identical && shard.salt_history() == twin.salt_history()
        && same_bits(shard.thetas().data(), twin.thetas().data(), shard.size());
    for (const mec::ResourceDim dim : layout) {
        worker_round.identical =
            worker_round.identical
            && same_bits(shard.column(dim).data(), twin.column(dim).data(), shard.size());
    }
    return {drift, collect, head, head_pass, worker_round};
}

/// One world row: a world build and its serial reference (the loop it
/// replaced, `fmore/reference/serial_world.hpp`), timed in alternation once
/// each per repetition, and whether they agree in every bit, the
/// generator's state afterwards included.
struct WorldRow {
    std::string name;
    std::string shape;
    std::vector<double> serial_ms{};
    std::vector<double> pooled_ms{};
    bool identical = true;
};

/// The worlds the benchmark lanes build: `wire_1m`'s 1M-node synthetic store
/// (the market rules of the `market` rows) and `fl_cifar`'s 10,500-sample
/// CIFAR-shaped set cut at 9,000, each built by its production path on the
/// pool (`stats::draw_in_chunks`) and by the serial loop.
std::vector<WorldRow> bench_world(std::size_t reps) {
    WorldRow store_row{"store", "1M-node synthetic store, nine columns"};
    mec::PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    mec::SyntheticDataSpec data;
    data.data_hi = 150.0;
    const stats::UniformDistribution theta(0.5, 1.5);
    for (std::size_t r = 0; r < reps; ++r) {
        stats::Rng serial_rng(r + 1);
        stats::Rng pooled_rng(r + 1);
        std::vector<std::vector<double>> columns;
        time_ms(store_row.serial_ms, [&] {
            columns = reference::serial_store_columns(1'000'000, data, theta, spec, serial_rng);
        });
        std::optional<mec::PopulationStore> store;
        time_ms(store_row.pooled_ms,
                [&] { store.emplace(1'000'000, data, theta, spec, pooled_rng); });
        store_row.identical = store_row.identical && store->snapshot().columns == columns
                              && serial_rng.engine() == pooled_rng.engine();
    }

    WorldRow images_row{"images", "cifar10_spec(10500) cut at 9000, 3x14x14"};
    const ml::ImageDatasetSpec images = ml::cifar10_spec(10'500);
    for (std::size_t r = 0; r < reps; ++r) {
        stats::Rng serial_rng(r + 1);
        stats::Rng pooled_rng(r + 1);
        ml::DatasetSplit serial;
        ml::DatasetSplit pooled;
        time_ms(images_row.serial_ms, [&] {
            serial = reference::serial_synthetic_images(images, 9'000, serial_rng);
        });
        time_ms(images_row.pooled_ms,
                [&] { pooled = ml::make_synthetic_images(images, 9'000, pooled_rng); });
        images_row.identical =
            images_row.identical && pooled.train.features == serial.train.features
            && pooled.train.labels == serial.train.labels
            && pooled.test.features == serial.test.features
            && pooled.test.labels == serial.test.labels
            && serial_rng.engine() == pooled_rng.engine();
    }
    return {store_row, images_row};
}

struct RoundResult {
    double gemm_serial_ms = 0.0;
    std::vector<std::pair<std::size_t, double>> gemm_threads_ms; ///< (threads, ms)
};

/// Mean per-round wall time of `paper/fig04` (FMore policy, 1 trial).
double time_round_ms(const core::ExperimentSpec& spec, std::size_t threads) {
    set_env("FMORE_ROUND_THREADS", std::to_string(threads).c_str());
    core::ExperimentTrial trial(spec, 0);
    const auto start = clock_type::now();
    const fl::RunResult result = trial.run("fmore");
    const double total = seconds_since(start);
    set_env("FMORE_ROUND_THREADS", "0");
    return total * 1e3 / static_cast<double>(result.rounds.size());
}

RoundResult bench_round(bool smoke) {
    core::ExperimentSpec spec = core::named_scenario("paper/fig04");
    spec.training.rounds = smoke ? 2 : 5;

    RoundResult out;
    out.gemm_serial_ms = time_round_ms(spec, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        out.gemm_threads_ms.emplace_back(threads, time_round_ms(spec, threads));
    }
    return out;
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path = "BENCH_kernels.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: micro_kernels [--smoke] [--out path.json]\n";
            return 2;
        }
    }
    const std::size_t reps = smoke ? 3 : 20;

    std::cout << "micro_kernels: GEMM-backed ml kernels vs the naive reference"
              << (smoke ? " (smoke)" : "") << "\n\n";

    // (1) Raw GEMM across representative shapes: small skinny matmuls (the
    // CNN convolutions' per-image shapes in GEMM form, the MNIST dense
    // layer), plus square sizes for the trajectory.
    std::vector<GemmResult> gemms;
    gemms.push_back(bench_gemm(8, 100, 9, reps * 50));    // MNIST conv1 per image
    gemms.push_back(bench_gemm(16, 25, 72, reps * 50));   // CIFAR conv2 per image
    gemms.push_back(bench_gemm(16, 64, 800, reps * 10));  // MNIST dense, batch 16
    gemms.push_back(bench_gemm(64, 64, 64, reps * 10));
    gemms.push_back(bench_gemm(128, 128, 128, reps));
    std::cout << "GEMM (GFLOP/s at the median time):\n";
    for (const GemmResult& g : gemms) {
        std::printf("  %4zux%-4zux%-4zu  naive %6.2f   gemm %6.2f   speedup %.2fx\n",
                    g.m, g.n, g.k, g.gflops(g.naive_us), g.gflops(g.gemm_us),
                    g.naive_us.median / g.gemm_us.median);
    }

    // (2) The layers at the shapes the paper's models use.
    std::vector<LayerResult> layers;
    using reference::NaiveConv2d;
    using reference::NaiveDense;
    using reference::NaiveLstm;
    layers.push_back(bench_layer<ml::Conv2d, NaiveConv2d>(
        "conv2d", "B16 1x12x12 -> 8@3x3", {16, 1, 12, 12}, reps * 5, 1, 8, 3));
    layers.push_back(bench_layer<ml::Conv2d, NaiveConv2d>(
        "conv2d_cifar", "B16 3x14x14 -> 8@3x3", {16, 3, 14, 14}, reps * 5, 3, 8, 3));
    layers.push_back(bench_layer<ml::Conv2d, NaiveConv2d>(
        "conv2d_deep", "B16 8x6x6 -> 16@3x3", {16, 8, 6, 6}, reps * 5, 8, 16, 3));
    layers.push_back(bench_layer<ml::Dense, NaiveDense>(
        "dense", "B16 800 -> 64", {16, 800}, reps * 5, 800, 64));
    layers.push_back(bench_layer<ml::Lstm, NaiveLstm>(
        "lstm", "B16 T16 E16 H32", {16, 16, 16}, reps, 16, 32));
    std::cout << "\nlayers (microseconds per call, median, naive -> gemm):\n";
    for (const LayerResult& l : layers) {
        std::printf("  %-12s %-22s fwd %8.1f -> %8.1f (%.2fx)   bwd %8.1f -> %8.1f (%.2fx)  %s\n",
                    l.name.c_str(), l.shape.c_str(), l.fwd_naive.median, l.fwd_gemm.median,
                    l.fwd_naive.median / l.fwd_gemm.median, l.bwd_naive.median,
                    l.bwd_gemm.median, l.bwd_naive.median / l.bwd_gemm.median,
                    l.identical ? "bit-identical" : "MISMATCH");
        if (l.wgrad_gemm && l.igrad_gemm) {
            std::printf("  %-12s %-22s bwd: weight grad %8.1f [%.1f-%.1f], input grad "
                        "%8.1f [%.1f-%.1f]\n",
                        "", "", l.wgrad_gemm->median, l.wgrad_gemm->q1, l.wgrad_gemm->q3,
                        l.igrad_gemm->median, l.igrad_gemm->q1, l.igrad_gemm->q3);
        }
    }

    // (2b) The elementwise stack: allocating API vs the in-place arena.
    const ElementwiseResult elementwise = bench_elementwise(reps * 5);
    std::cout << "\nelementwise stack (" << elementwise.shape << "), fwd+bwd, median:\n";
    std::printf("  alloc-per-call %8.1f us   arena %8.1f us   (%.2fx)\n",
                elementwise.alloc_us.median, elementwise.arena_us.median,
                elementwise.alloc_us.median / elementwise.arena_us.median);

    const ReluResult relu = bench_relu(reps * 25);
    std::printf("  relu (%s) fwd %6.2f [%.2f-%.2f] us   bwd %6.2f [%.2f-%.2f] us  %s\n",
                relu.shape.c_str(), relu.fwd_us.median, relu.fwd_us.q1, relu.fwd_us.q3,
                relu.bwd_us.median, relu.bwd_us.q1, relu.bwd_us.q3,
                relu.identical ? "bit-identical" : "MISMATCH");

    // (2c) The fl_cifar model's hidden Dense forward against the old layout.
    const DenseResult dense = bench_dense(reps * 25);
    std::printf("\ndense forward (%s, median [quartiles]):\n"
                "  old layout %7.2f [%.2f-%.2f] us   W x^T %7.2f [%.2f-%.2f] us   (%.2fx)  %s\n",
                dense.shape.c_str(), dense.old_layout_us.median, dense.old_layout_us.q1,
                dense.old_layout_us.q3, dense.fast_us.median, dense.fast_us.q1,
                dense.fast_us.q3, dense.old_layout_us.median / dense.fast_us.median,
                dense.identical ? "bit-identical" : "MISMATCH");

    // (3) One training step of the fl_cifar model.
    const ModelPassResult step = bench_train_step(reps * 5);
    std::printf("\ntraining step (%s, fwd+loss+bwd+sgd, median):\n"
                "  naive %8.1f us   fast %8.1f us   (%.2fx)\n",
                step.shape.c_str(), step.naive_us.median, step.fast_us.median,
                step.naive_us.median / step.fast_us.median);
    const ModelPassResult eval = bench_eval_forward(reps);
    std::printf("\nevaluation forward (%s, gather+forward+loss, median [quartiles]):\n"
                "  naive %8.1f [%.1f-%.1f] us   fast %8.1f [%.1f-%.1f] us   (%.2fx)\n",
                eval.shape.c_str(), eval.naive_us.median, eval.naive_us.q1, eval.naive_us.q3,
                eval.fast_us.median, eval.fast_us.q1, eval.fast_us.q3,
                eval.naive_us.median / eval.fast_us.median);
    const EvalPassResult eval_pass = bench_eval_batches(reps);
    std::printf("\nevaluation pass (%s, gather+forward+loss, median [quartiles]):\n"
                "  whole batch %8.1f [%.1f-%.1f] us   sliced %8.1f [%.1f-%.1f] us   "
                "(%.2fx)  %s\n",
                eval_pass.shape.c_str(), eval_pass.whole_us.median, eval_pass.whole_us.q1,
                eval_pass.whole_us.q3, eval_pass.sliced_us.median, eval_pass.sliced_us.q1,
                eval_pass.sliced_us.q3, eval_pass.whole_us.median / eval_pass.sliced_us.median,
                eval_pass.identical ? "bit-identical" : "MISMATCH");

    // (4) The market's shard pass.
    std::size_t shard_rows = 0;
    const std::size_t market_reps = smoke ? 11 : 41;
    const std::vector<MarketRow> market = bench_market(market_reps, shard_rows);
    std::printf("\nmarket shard pass (%zu-row narrowed wire_1m shard, 1 thread, ms, median "
                "[quartiles] of %zu repetitions, reference -> kernel):\n",
                shard_rows, market_reps);
    for (const MarketRow& m : market) {
        const Spread kernel = spread_of(m.kernel_ms);
        const Spread reference = spread_of(m.reference_ms);
        std::printf("  %-12s %8.3f [%.3f-%.3f] -> %8.3f [%.3f-%.3f] (%.2fx)  %s\n"
                    "               [reference: %s]\n",
                    m.name.c_str(), reference.median, reference.q1, reference.q3,
                    kernel.median, kernel.q1, kernel.q3, reference.median / kernel.median,
                    m.identical ? "bit-identical" : "MISMATCH", m.reference.c_str());
        if (m.priced_rows > 0)
            std::printf("               %zu of %zu rows priced\n", m.priced_rows, shard_rows);
    }

    // (5) The world builds: serial loop against the pooled build.
    const std::size_t world_reps = smoke ? 5 : 21;
    const std::vector<WorldRow> world = bench_world(world_reps);
    const std::size_t world_threads = util::resolve_round_threads(0, 64);
    std::printf("\nworld builds (%zu round threads, ms, median [quartiles] of %zu "
                "repetitions, serial -> pooled):\n",
                world_threads, world_reps);
    for (const WorldRow& w : world) {
        const Spread serial = spread_of(w.serial_ms);
        const Spread pooled = spread_of(w.pooled_ms);
        std::printf("  %-7s %8.2f [%.2f-%.2f] -> %8.2f [%.2f-%.2f] (%.2fx)  %s\n"
                    "          [%s]\n",
                    w.name.c_str(), serial.median, serial.q1, serial.q3, pooled.median,
                    pooled.q1, pooled.q3, serial.median / pooled.median,
                    w.identical ? "bit-identical" : "MISMATCH", w.shape.c_str());
    }

    // (6) End-to-end rounds at 1/2/4/8 round threads.
    std::cout << "\npaper/fig04 round time (ms/round, 1 trial):\n";
    const RoundResult round = bench_round(smoke);
    std::printf("  gemm kernels,  1 thread:  %8.1f\n", round.gemm_serial_ms);
    for (const auto& [threads, ms] : round.gemm_threads_ms) {
        std::printf("  gemm kernels, %2zu threads: %8.1f\n", threads, ms);
    }

    // Machine-readable ledger.
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::cerr << "micro_kernels: cannot write " << out_path << '\n';
        return 1;
    }
    std::fprintf(f, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"build\": \"%s\",\n", FMORE_BENCH_BUILD_INFO);
    // The parallel-round axis needs hardware threads; record what this box
    // had so the threads rows are interpretable.
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"gemm\": [\n");
    for (std::size_t i = 0; i < gemms.size(); ++i) {
        const GemmResult& g = gemms[i];
        std::fprintf(f,
                     "    {\"m\": %zu, \"n\": %zu, \"k\": %zu, \"naive_gflops\": %.4g, "
                     "\"gemm_gflops\": %.4g, \"speedup\": %.4g, %s, %s}%s\n",
                     g.m, g.n, g.k, g.gflops(g.naive_us), g.gflops(g.gemm_us),
                     g.naive_us.median / g.gemm_us.median,
                     spread_json("naive", g.naive_us).c_str(),
                     spread_json("gemm", g.gemm_us).c_str(), i + 1 < gemms.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"layers\": [\n");
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerResult& l = layers[i];
        const std::string split =
            l.wgrad_gemm && l.igrad_gemm
                ? ", " + spread_json("wgrad_gemm", *l.wgrad_gemm) + ", "
                      + spread_json("igrad_gemm", *l.igrad_gemm)
                : "";
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"shape\": \"%s\", %s, %s, \"fwd_speedup\": %.4g, "
                     "%s, %s, \"bwd_speedup\": %.4g%s, \"bit_identical\": %s}%s\n",
                     l.name.c_str(), l.shape.c_str(),
                     spread_json("fwd_naive", l.fwd_naive).c_str(),
                     spread_json("fwd_gemm", l.fwd_gemm).c_str(),
                     l.fwd_naive.median / l.fwd_gemm.median,
                     spread_json("bwd_naive", l.bwd_naive).c_str(),
                     spread_json("bwd_gemm", l.bwd_gemm).c_str(),
                     l.bwd_naive.median / l.bwd_gemm.median, split.c_str(),
                     l.identical ? "true" : "false", i + 1 < layers.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"elementwise\": {\"shape\": \"%s\", %s, %s, \"speedup\": %.4g},\n",
                 elementwise.shape.c_str(), spread_json("alloc", elementwise.alloc_us).c_str(),
                 spread_json("arena", elementwise.arena_us).c_str(),
                 elementwise.alloc_us.median / elementwise.arena_us.median);
    std::fprintf(f, "  \"relu\": {\"shape\": \"%s\", %s, %s, \"bit_identical\": %s},\n",
                 relu.shape.c_str(), spread_json("fwd", relu.fwd_us).c_str(),
                 spread_json("bwd", relu.bwd_us).c_str(), relu.identical ? "true" : "false");
    std::fprintf(f,
                 "  \"dense\": {\"shape\": \"%s\", %s, %s, \"speedup\": %.4g, "
                 "\"bit_identical\": %s},\n",
                 dense.shape.c_str(), spread_json("old_layout", dense.old_layout_us).c_str(),
                 spread_json("fast", dense.fast_us).c_str(),
                 dense.old_layout_us.median / dense.fast_us.median,
                 dense.identical ? "true" : "false");
    for (const auto& [key, pass] : {std::pair{"train_step", &step}, std::pair{"eval_forward", &eval}}) {
        std::fprintf(f, "  \"%s\": {\"shape\": \"%s\", %s, %s, \"speedup\": %.4g},\n", key,
                     pass->shape.c_str(), spread_json("naive", pass->naive_us).c_str(),
                     spread_json("fast", pass->fast_us).c_str(),
                     pass->naive_us.median / pass->fast_us.median);
    }
    std::fprintf(f,
                 "  \"eval_batches\": {\"shape\": \"%s\", %s, %s, \"speedup\": %.4g, "
                 "\"bit_identical\": %s},\n",
                 eval_pass.shape.c_str(), spread_json("whole", eval_pass.whole_us).c_str(),
                 spread_json("sliced", eval_pass.sliced_us).c_str(),
                 eval_pass.whole_us.median / eval_pass.sliced_us.median,
                 eval_pass.identical ? "true" : "false");
    std::fprintf(f,
                 "  \"market\": {\"shard_rows\": %zu, \"threads\": 1, "
                 "\"hardware_threads\": %u, \"repetitions\": %zu, \"rows\": [\n",
                 shard_rows, std::thread::hardware_concurrency(), market_reps);
    for (std::size_t i = 0; i < market.size(); ++i) {
        const MarketRow& m = market[i];
        const Spread kernel = spread_of(m.kernel_ms);
        const Spread reference = spread_of(m.reference_ms);
        const std::string priced =
            m.priced_rows > 0 ? ", \"priced_rows\": " + std::to_string(m.priced_rows) : "";
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"reference\": \"%s\", "
                     "\"reference_ms\": %.4g, \"reference_q1_ms\": %.4g, "
                     "\"reference_q3_ms\": %.4g, \"kernel_ms\": %.4g, "
                     "\"kernel_q1_ms\": %.4g, \"kernel_q3_ms\": %.4g, \"speedup\": %.4g, "
                     "\"bit_identical\": %s%s}%s\n",
                     m.name.c_str(), m.reference.c_str(), reference.median, reference.q1,
                     reference.q3, kernel.median, kernel.q1, kernel.q3,
                     reference.median / kernel.median, m.identical ? "true" : "false",
                     priced.c_str(), i + 1 < market.size() ? "," : "");
    }
    std::fprintf(f, "  ]},\n");
    std::fprintf(f,
                 "  \"world\": {\"threads\": %zu, \"hardware_threads\": %u, "
                 "\"repetitions\": %zu, \"rows\": [\n",
                 world_threads, std::thread::hardware_concurrency(), world_reps);
    for (std::size_t i = 0; i < world.size(); ++i) {
        const WorldRow& w = world[i];
        const Spread serial = spread_of(w.serial_ms);
        const Spread pooled = spread_of(w.pooled_ms);
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"shape\": \"%s\", \"serial_ms\": %.4g, "
                     "\"serial_q1_ms\": %.4g, \"serial_q3_ms\": %.4g, \"pooled_ms\": %.4g, "
                     "\"pooled_q1_ms\": %.4g, \"pooled_q3_ms\": %.4g, \"speedup\": %.4g, "
                     "\"bit_identical\": %s}%s\n",
                     w.name.c_str(), w.shape.c_str(), serial.median, serial.q1, serial.q3,
                     pooled.median, pooled.q1, pooled.q3, serial.median / pooled.median,
                     w.identical ? "true" : "false", i + 1 < world.size() ? "," : "");
    }
    std::fprintf(f, "  ]},\n");
    std::fprintf(f, "  \"round\": {\n    \"scenario\": \"paper/fig04\",\n");
    std::fprintf(f, "    \"gemm_serial_ms\": %.4g,\n", round.gemm_serial_ms);
    std::fprintf(f, "    \"gemm_threads_ms\": {");
    for (std::size_t i = 0; i < round.gemm_threads_ms.size(); ++i) {
        const auto& [threads, ms] = round.gemm_threads_ms[i];
        std::fprintf(f, "\"%zu\": %.4g%s", threads, ms,
                     i + 1 < round.gemm_threads_ms.size() ? ", " : "");
    }
    std::fprintf(f, "}\n  }\n}\n");
    std::fclose(f);
    std::cout << "\nwrote " << out_path << '\n';

    // Gate: every production path must beat the reference loops it replaced.
    std::vector<std::string> slower;
    for (const LayerResult& l : layers) {
        if (l.fwd_gemm.median > l.fwd_naive.median) slower.push_back(l.name + " fwd");
        if (l.bwd_gemm.median > l.bwd_naive.median) slower.push_back(l.name + " bwd");
    }
    if (dense.fast_us.median > dense.old_layout_us.median) slower.push_back("dense");
    if (step.fast_us.median > step.naive_us.median) slower.push_back("train_step");
    if (eval.fast_us.median > eval.naive_us.median) slower.push_back("eval_forward");
    for (const std::string& name : slower) {
        std::cerr << "micro_kernels: FAIL " << name
                  << ": production path slower than its reference twin\n";
    }
    // Gate: every layer must reproduce its reference twin, the Dense
    // forward and the sliced evaluation pass the code they replaced, bit
    // for bit, and every market kernel its reference.
    bool identical = true;
    for (const LayerResult& l : layers) {
        if (l.identical) continue;
        identical = false;
        std::cerr << "micro_kernels: FAIL " << l.name
                  << ": a pass differs from its reference twin\n";
    }
    if (!relu.identical) {
        identical = false;
        std::cerr << "micro_kernels: FAIL relu: a pass differs from the textbook rule\n";
    }
    if (!dense.identical) {
        identical = false;
        std::cerr << "micro_kernels: FAIL dense: output differs from the old layout\n";
    }
    if (!eval_pass.identical) {
        identical = false;
        std::cerr << "micro_kernels: FAIL eval_batches: sliced records differ from the "
                     "whole-batch pass\n";
    }
    for (const MarketRow& m : market) {
        if (m.identical) continue;
        identical = false;
        std::cerr << "micro_kernels: FAIL market " << m.name
                  << ": kernel output differs from its reference\n";
    }
    // Gate: every pooled world build must reproduce its serial loop bit for
    // bit.
    for (const WorldRow& w : world) {
        if (w.identical) continue;
        identical = false;
        std::cerr << "micro_kernels: FAIL world " << w.name
                  << ": the pooled build differs from the serial loop\n";
    }
    return slower.empty() && identical ? 0 : 1;
}
