// micro_kernels: the performance ledger of the compute substrate. Measures
//  (1) the ml::gemm micro-kernel against the naive triple loop (GFLOP/s),
//  (2) Conv2d / Dense / Lstm forward+backward at the paper's MNIST/CIFAR/
//      HPNews shapes, fast path vs the FMORE_NAIVE_KERNELS reference loops,
//  (3) one training step (forward + loss + backward + SGD) of the deep CNN
//      on a CIFAR-shaped minibatch, fast vs naive, with the sparse
//      gradients ReLU and Dropout really produce, and one evaluation
//      forward of the same model on a B128 batch (the evaluation batch),
//  (4) the market's shard pass on one 250k-row shard of the `wire_1m`
//      world (N = 1M over 4 shards, alpha=25 scaled product over data and
//      category, additive cost, theta ~ U[0.5, 1.5], K = 32): the drift,
//      collect and head row kernels next to their per-row references,
//  (5) end-to-end round time of the `paper/fig04` scenario: the naive
//      kernels in a serial round vs the fast path at 1/2/4/8 round threads,
// and writes everything to a machine-readable BENCH_kernels.json so future
// PRs have a perf trajectory to regress against.
//
//   micro_kernels [--smoke] [--out path.json]
//
// --smoke shrinks repetitions (CI); the JSON is written either way. Exits 1
// when a `layers` row, the training step or the evaluation forward has a
// fast path slower than its naive loop (the elementwise row compares two
// APIs, not two kernels, and is not gated), or when a `market` kernel's
// output differs from its reference in any bit. Market speed is recorded,
// not gated: without 64-bit vector multiplies (AVX2 and older) the drift
// loop stays scalar and runs slower than its per-node reference.
//
// The elementwise and evaluation rows cycle through 8 distinct inputs: on
// one fixed input the branch predictor learns a data-dependent pattern
// (MaxPool2d's window winners, Dropout's mask) and the row under-reports
// what a fresh minibatch costs.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
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
#include "fmore/stats/rng.hpp"

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

/// Time `fn` over `reps` repetitions, best-of to shed scheduler noise.
template <typename Fn>
double best_seconds(std::size_t reps, Fn&& fn) {
    double best = 1e300;
    for (std::size_t r = 0; r < reps; ++r) {
        const auto start = clock_type::now();
        fn();
        best = std::min(best, seconds_since(start));
    }
    return best;
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
    double naive_gflops;
    double gemm_gflops;
};

GemmResult bench_gemm(std::size_t m, std::size_t n, std::size_t k, std::size_t reps) {
    stats::Rng rng(42);
    const std::vector<float> a = random_vec(m * k, rng);
    const std::vector<float> b = random_vec(k * n, rng);
    std::vector<float> c(m * n, 0.0F);
    const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n)
                         * static_cast<double>(k);
    const double t_naive =
        best_seconds(reps, [&] { naive_gemm(m, n, k, a.data(), b.data(), c.data()); });
    const double t_fast = best_seconds(reps, [&] {
        ml::gemm_acc(m, n, k, a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
                     static_cast<std::ptrdiff_t>(n), c.data(),
                     static_cast<std::ptrdiff_t>(n));
    });
    return {m, n, k, flops / t_naive / 1e9, flops / t_fast / 1e9};
}

struct LayerResult {
    std::string name;
    std::string shape;
    double fwd_naive_us, fwd_gemm_us;
    double bwd_naive_us, bwd_gemm_us;
};

/// Forward+backward timings of one layer under both kernel paths.
template <typename MakeLayer>
LayerResult bench_layer(const std::string& name, const std::string& shape,
                        MakeLayer&& make, const std::vector<std::size_t>& in_shape,
                        std::size_t reps) {
    stats::Rng rng(7);
    auto layer = make();
    layer->initialize(rng);
    ml::Tensor input(in_shape);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

    LayerResult out{name, shape, 0, 0, 0, 0};
    for (const bool naive : {true, false}) {
        ml::set_naive_kernels(naive ? 1 : 0);
        ml::Tensor y = layer->forward(input, true);
        ml::Tensor gy(y.shape());
        for (std::size_t i = 0; i < gy.size(); ++i)
            gy[i] = static_cast<float>(rng.uniform(-0.1, 0.1));
        const double t_f =
            best_seconds(reps, [&] { y = layer->forward(input, true); });
        const double t_b =
            best_seconds(reps, [&] { ml::Tensor gx = layer->backward(gy); });
        if (naive) {
            out.fwd_naive_us = t_f * 1e6;
            out.bwd_naive_us = t_b * 1e6;
        } else {
            out.fwd_gemm_us = t_f * 1e6;
            out.bwd_gemm_us = t_b * 1e6;
        }
    }
    ml::set_naive_kernels(-1);
    return out;
}

struct ElementwiseResult {
    std::string shape;
    double alloc_us = 0.0;  ///< allocating forward/backward API (pre-arena)
    double arena_us = 0.0;  ///< forward_into/backward_into over reused slots
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

    const double t_alloc = best_seconds(reps, [&] {
        const ml::Tensor& input = inputs[next++ % kDistinctInputs];
        const ml::Tensor a = relu.forward(input, true);
        const ml::Tensor b = pool.forward(a, true);
        const ml::Tensor c = dropout.forward(b, true);
        const ml::Tensor gc = dropout.backward(c);
        const ml::Tensor gb = pool.backward(gc);
        const ml::Tensor ga = relu.backward(gb);
    });

    ml::Tensor a, b, c, gc, gb, ga; // persistent slots: the arena
    const double t_arena = best_seconds(reps, [&] {
        relu.forward_into(inputs[next++ % kDistinctInputs], a, true);
        pool.forward_into(a, b, true);
        dropout.forward_into(b, c, true);
        dropout.backward_into(c, gc);
        pool.backward_into(gc, gb);
        relu.backward_into(gb, ga);
    });
    out.alloc_us = t_alloc * 1e6;
    out.arena_us = t_arena * 1e6;
    return out;
}

struct ModelPassResult {
    std::string shape;
    double naive_us = 0.0;
    double fast_us = 0.0;
};

/// One minibatch step of the fl_cifar model (`make_cnn_deep`, 3x14x14):
/// zero_grad, forward, loss, backward, SGD. Each kernel path trains its own
/// copy from the same seed on the same batch, so ReLU and Dropout hand the
/// convolutions the sparse gradients of real training.
ModelPassResult bench_train_step(std::size_t reps) {
    stats::Rng data_rng(13);
    const ml::Dataset data = ml::make_synthetic_images(ml::cifar10_spec(16), data_rng);
    std::vector<std::size_t> idx(data.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    const ml::Tensor batch = data.gather(idx);
    const std::vector<int> labels = data.gather_labels(idx);

    ModelPassResult out;
    out.shape = "cnn_deep B16 3x14x14";
    for (const bool naive : {true, false}) {
        ml::set_naive_kernels(naive ? 1 : 0);
        ml::Model model =
            ml::make_cnn_deep(ml::ImageSpec{3, 14, 14, data.num_classes}, 17);
        ml::SoftmaxCrossEntropy loss;
        const double t = best_seconds(reps, [&] {
            model.zero_grad();
            const ml::Tensor& logits = model.forward(batch, /*training=*/true);
            (void)loss.forward(logits, labels);
            model.backward(loss.backward());
            model.sgd_step(0.01);
        });
        (naive ? out.naive_us : out.fast_us) = t * 1e6;
    }
    ml::set_naive_kernels(-1);
    return out;
}

/// One evaluation forward (`training=false`) of the fl_cifar model on a
/// B128 batch, the evaluation batch size, naive vs fast: conv, ReLU,
/// MaxPool2d and Dense forward with no backward, as in every round's
/// evaluation.
ModelPassResult bench_eval_forward(std::size_t reps) {
    stats::Rng rng(14);
    const std::vector<ml::Tensor> inputs = random_inputs({ml::kEvalBatch, 3, 14, 14}, rng);
    std::size_t next = 0;

    ModelPassResult out;
    out.shape = "cnn_deep B128 3x14x14 eval";
    for (const bool naive : {true, false}) {
        ml::set_naive_kernels(naive ? 1 : 0);
        ml::Model model = ml::make_cnn_deep(ml::ImageSpec{3, 14, 14, 10}, 17);
        const double t = best_seconds(reps, [&] {
            (void)model.forward(inputs[next++ % kDistinctInputs], /*training=*/false);
        });
        (naive ? out.naive_us : out.fast_us) = t * 1e6;
    }
    ml::set_naive_kernels(-1);
    return out;
}

/// One market row: a shard-pass kernel and its per-row reference, timed
/// on the same shard, and whether their outputs agree in every bit.
struct MarketRow {
    std::string name;
    std::string reference;
    double kernel_ms = 0.0;
    double reference_ms = 0.0;
    bool identical = false;
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
/// key before the heap comparison.
void eager_key_head(const auction::BidFrame& frame, std::size_t node_offset,
                    const auction::TieKeys& keys, std::size_t limit,
                    auction::ShardHead& out) {
    out.clear();
    out.dims = frame.dims();
    std::vector<auction::HeadRow>& heap = out.rows;
    for (std::size_t row = 0; row < frame.rows(); ++row) {
        if (!frame.active(row)) continue;
        const std::size_t global = node_offset + row;
        const auction::HeadRow cand{global, frame.score(row), keys.key(global),
                                    frame.payment(row)};
        if (heap.size() < limit) {
            heap.push_back(cand);
            std::push_heap(heap.begin(), heap.end(), auction::head_row_better);
        } else if (auction::head_row_better(cand, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), auction::head_row_better);
            heap.back() = cand;
            std::push_heap(heap.begin(), heap.end(), auction::head_row_better);
        }
    }
    std::sort(heap.begin(), heap.end(), auction::head_row_better);
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

/// The shard pass of one `wire_1m` worker, on one core: drift, collect and
/// head, each kernel against its reference. Kernel and reference run in
/// alternation on twin stores, one round each per repetition, so both see
/// the same drifted state; best-of over the repetitions.
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
    mec::PopulationStore shard =
        mec::PopulationStore(kNodes, data, theta, spec, world_rng).split_even(kShards)[1];
    mec::PopulationStore reference = shard;
    shard_rows = shard.size();

    const mec::QualityLayout layout{mec::ResourceDim::data_size,
                                    mec::ResourceDim::category_proportion};
    const mec::Blacklist banned;
    auction::BidFrame frame;
    auction::BidFrame reference_frame;
    std::vector<const double*> columns;
    stats::Rng drift_rng(0xd41f7ULL);
    stats::Rng reference_rng(0xd41f7ULL);

    // The wire worker's configuration: one round thread per process.
    set_env("FMORE_ROUND_THREADS", "1");
    MarketRow drift{"drift", "evolve_serial: the per-node loop", 1e300, 1e300, true};
    MarketRow collect{"collect", "quality_into, cap clamp, quote_span per row", 1e300,
                      1e300, true};
    for (std::size_t r = 0; r < reps; ++r) {
        auto start = clock_type::now();
        shard.evolve(drift_rng);
        drift.kernel_ms = std::min(drift.kernel_ms, seconds_since(start) * 1e3);
        start = clock_type::now();
        reference.evolve_serial(reference_rng);
        drift.reference_ms = std::min(drift.reference_ms, seconds_since(start) * 1e3);

        start = clock_type::now();
        frame.reset(shard.size(), layout.size());
        mec::collect_bid_rows(shard, 0, shard.size(), layout, strategy, scoring, true,
                              auction::PaymentMethod::integral, banned, frame, 0, columns,
                              /*parallel=*/false);
        collect.kernel_ms = std::min(collect.kernel_ms, seconds_since(start) * 1e3);
        start = clock_type::now();
        reference_frame.reset(reference.size(), layout.size());
        per_row_collect(reference, layout, strategy, banned, reference_frame);
        collect.reference_ms =
            std::min(collect.reference_ms, seconds_since(start) * 1e3);
        collect.identical = collect.identical && same_frames(frame, reference_frame);
    }
    set_env("FMORE_ROUND_THREADS", "0");
    const mec::PopulationSnapshot a = shard.snapshot();
    const mec::PopulationSnapshot b = reference.snapshot();
    drift.identical = a.salt_history == b.salt_history;
    for (std::size_t c = 0; c < a.columns.size(); ++c) {
        drift.identical = drift.identical
                          && same_bits(a.columns[c].data(), b.columns[c].data(),
                                       a.columns[c].size());
    }

    frame.set_scored(true);
    auction::TieKeys keys;
    keys.salted = true;
    keys.salt = 0x7e1eULL;
    MarketRow head{"head", "every active row hashes its tie key", 1e300, 1e300, true};
    auction::ShardHead kernel_head;
    auction::ShardHead reference_head;
    for (std::size_t r = 0; r < reps; ++r) {
        auto start = clock_type::now();
        auction::collect_shard_head(frame, shard.node_offset(), keys, kWinners,
                                    kernel_head);
        head.kernel_ms = std::min(head.kernel_ms, seconds_since(start) * 1e3);
        start = clock_type::now();
        eager_key_head(frame, shard.node_offset(), keys, kWinners, reference_head);
        head.reference_ms = std::min(head.reference_ms, seconds_since(start) * 1e3);
        head.identical = head.identical && same_heads(kernel_head, reference_head);
    }
    return {drift, collect, head};
}

struct RoundResult {
    double naive_serial_ms = 0.0; ///< the pre-PR configuration
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
    ml::set_naive_kernels(1);
    out.naive_serial_ms = time_round_ms(spec, 1);
    ml::set_naive_kernels(0);
    out.gemm_serial_ms = time_round_ms(spec, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        out.gemm_threads_ms.emplace_back(threads, time_round_ms(spec, threads));
    }
    ml::set_naive_kernels(-1);
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
    std::cout << "GEMM (GFLOP/s):\n";
    for (const GemmResult& g : gemms) {
        std::printf("  %4zux%-4zux%-4zu  naive %6.2f   gemm %6.2f   speedup %.2fx\n",
                    g.m, g.n, g.k, g.naive_gflops, g.gemm_gflops,
                    g.gemm_gflops / g.naive_gflops);
    }

    // (2) The layers at the shapes the paper's models use.
    std::vector<LayerResult> layers;
    layers.push_back(bench_layer(
        "conv2d", "B16 1x12x12 -> 8@3x3",
        [] { return std::make_unique<ml::Conv2d>(1, 8, 3); },
        {16, 1, 12, 12}, reps * 5));
    layers.push_back(bench_layer(
        "conv2d_cifar", "B16 3x14x14 -> 8@3x3",
        [] { return std::make_unique<ml::Conv2d>(3, 8, 3); },
        {16, 3, 14, 14}, reps * 5));
    layers.push_back(bench_layer(
        "conv2d_deep", "B16 8x6x6 -> 16@3x3",
        [] { return std::make_unique<ml::Conv2d>(8, 16, 3); },
        {16, 8, 6, 6}, reps * 5));
    layers.push_back(bench_layer(
        "dense", "B16 800 -> 64",
        [] { return std::make_unique<ml::Dense>(800, 64); },
        {16, 800}, reps * 5));
    layers.push_back(bench_layer(
        "lstm", "B16 T16 E16 H32",
        [] { return std::make_unique<ml::Lstm>(16, 32); },
        {16, 16, 16}, reps));
    std::cout << "\nlayers (microseconds per call, naive -> gemm):\n";
    for (const LayerResult& l : layers) {
        std::printf("  %-12s %-22s fwd %8.1f -> %8.1f (%.2fx)   bwd %8.1f -> %8.1f (%.2fx)\n",
                    l.name.c_str(), l.shape.c_str(), l.fwd_naive_us, l.fwd_gemm_us,
                    l.fwd_naive_us / l.fwd_gemm_us, l.bwd_naive_us, l.bwd_gemm_us,
                    l.bwd_naive_us / l.bwd_gemm_us);
    }

    // (2b) The elementwise stack: allocating API vs the in-place arena.
    const ElementwiseResult elementwise = bench_elementwise(reps * 5);
    std::cout << "\nelementwise stack (" << elementwise.shape << "), fwd+bwd:\n";
    std::printf("  alloc-per-call %8.1f us   arena %8.1f us   (%.2fx)\n",
                elementwise.alloc_us, elementwise.arena_us,
                elementwise.alloc_us / elementwise.arena_us);

    // (3) One training step of the fl_cifar model.
    const ModelPassResult step = bench_train_step(reps * 5);
    std::printf("\ntraining step (%s, fwd+loss+bwd+sgd):\n"
                "  naive %8.1f us   fast %8.1f us   (%.2fx)\n",
                step.shape.c_str(), step.naive_us, step.fast_us,
                step.naive_us / step.fast_us);
    const ModelPassResult eval = bench_eval_forward(reps);
    std::printf("\nevaluation forward (%s):\n"
                "  naive %8.1f us   fast %8.1f us   (%.2fx)\n",
                eval.shape.c_str(), eval.naive_us, eval.fast_us,
                eval.naive_us / eval.fast_us);

    // (4) The market's shard pass.
    std::size_t shard_rows = 0;
    const std::vector<MarketRow> market = bench_market(smoke ? 5 : 40, shard_rows);
    std::printf("\nmarket shard pass (%zu-row wire_1m shard, 1 thread, ms, "
                "reference -> kernel):\n",
                shard_rows);
    for (const MarketRow& m : market) {
        std::printf("  %-8s %8.3f -> %8.3f (%.2fx)  %s  [reference: %s]\n",
                    m.name.c_str(), m.reference_ms, m.kernel_ms,
                    m.reference_ms / m.kernel_ms,
                    m.identical ? "bit-identical" : "MISMATCH", m.reference.c_str());
    }

    // (5) End-to-end rounds: the naive serial baseline vs the fast path at
    // 1/2/4/8 round threads.
    std::cout << "\npaper/fig04 round time (ms/round, 1 trial):\n";
    const RoundResult round = bench_round(smoke);
    std::printf("  naive kernels, serial round (pre-PR baseline): %8.1f\n",
                round.naive_serial_ms);
    std::printf("  gemm kernels,  1 thread:  %8.1f  (%.2fx vs baseline)\n",
                round.gemm_serial_ms, round.naive_serial_ms / round.gemm_serial_ms);
    double best_parallel = round.gemm_serial_ms;
    for (const auto& [threads, ms] : round.gemm_threads_ms) {
        std::printf("  gemm kernels, %2zu threads: %8.1f  (%.2fx vs baseline)\n", threads,
                    ms, round.naive_serial_ms / ms);
        best_parallel = std::min(best_parallel, ms);
    }

    // Machine-readable ledger.
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::cerr << "micro_kernels: cannot write " << out_path << '\n';
        return 1;
    }
    std::fprintf(f, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
    // The parallel-round axis needs hardware threads; record what this box
    // had so the threads rows are interpretable.
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"gemm\": [\n");
    for (std::size_t i = 0; i < gemms.size(); ++i) {
        const GemmResult& g = gemms[i];
        std::fprintf(f,
                     "    {\"m\": %zu, \"n\": %zu, \"k\": %zu, \"naive_gflops\": %.4g, "
                     "\"gemm_gflops\": %.4g, \"speedup\": %.4g}%s\n",
                     g.m, g.n, g.k, g.naive_gflops, g.gemm_gflops,
                     g.gemm_gflops / g.naive_gflops, i + 1 < gemms.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"layers\": [\n");
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerResult& l = layers[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"shape\": \"%s\", \"fwd_naive_us\": %.4g, "
            "\"fwd_gemm_us\": %.4g, \"fwd_speedup\": %.4g, \"bwd_naive_us\": %.4g, "
            "\"bwd_gemm_us\": %.4g, \"bwd_speedup\": %.4g}%s\n",
            l.name.c_str(), l.shape.c_str(), l.fwd_naive_us, l.fwd_gemm_us,
            l.fwd_naive_us / l.fwd_gemm_us, l.bwd_naive_us, l.bwd_gemm_us,
            l.bwd_naive_us / l.bwd_gemm_us, i + 1 < layers.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"elementwise\": {\"shape\": \"%s\", \"alloc_us\": %.4g, "
                 "\"arena_us\": %.4g, \"speedup\": %.4g},\n",
                 elementwise.shape.c_str(), elementwise.alloc_us, elementwise.arena_us,
                 elementwise.alloc_us / elementwise.arena_us);
    std::fprintf(f,
                 "  \"train_step\": {\"shape\": \"%s\", \"naive_us\": %.4g, "
                 "\"fast_us\": %.4g, \"speedup\": %.4g},\n",
                 step.shape.c_str(), step.naive_us, step.fast_us,
                 step.naive_us / step.fast_us);
    std::fprintf(f,
                 "  \"eval_forward\": {\"shape\": \"%s\", \"naive_us\": %.4g, "
                 "\"fast_us\": %.4g, \"speedup\": %.4g},\n",
                 eval.shape.c_str(), eval.naive_us, eval.fast_us,
                 eval.naive_us / eval.fast_us);
    std::fprintf(f, "  \"market\": {\"shard_rows\": %zu, \"threads\": 1, \"rows\": [\n",
                 shard_rows);
    for (std::size_t i = 0; i < market.size(); ++i) {
        const MarketRow& m = market[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"reference\": \"%s\", "
                     "\"reference_ms\": %.4g, \"kernel_ms\": %.4g, \"speedup\": %.4g, "
                     "\"bit_identical\": %s}%s\n",
                     m.name.c_str(), m.reference.c_str(), m.reference_ms, m.kernel_ms,
                     m.reference_ms / m.kernel_ms, m.identical ? "true" : "false",
                     i + 1 < market.size() ? "," : "");
    }
    std::fprintf(f, "  ]},\n");
    std::fprintf(f, "  \"round\": {\n    \"scenario\": \"paper/fig04\",\n");
    std::fprintf(f, "    \"baseline_naive_serial_ms\": %.4g,\n", round.naive_serial_ms);
    std::fprintf(f, "    \"gemm_serial_ms\": %.4g,\n", round.gemm_serial_ms);
    std::fprintf(f, "    \"gemm_threads_ms\": {");
    for (std::size_t i = 0; i < round.gemm_threads_ms.size(); ++i) {
        const auto& [threads, ms] = round.gemm_threads_ms[i];
        std::fprintf(f, "\"%zu\": %.4g%s", threads, ms,
                     i + 1 < round.gemm_threads_ms.size() ? ", " : "");
    }
    const double at8 = round.gemm_threads_ms.empty()
                           ? round.gemm_serial_ms
                           : round.gemm_threads_ms.back().second;
    std::fprintf(f, "},\n    \"speedup_at_8_threads_vs_baseline\": %.4g,\n",
                 round.naive_serial_ms / at8);
    std::fprintf(f, "    \"best_speedup_vs_baseline\": %.4g\n  }\n}\n",
                 round.naive_serial_ms / best_parallel);
    std::fclose(f);
    std::cout << "\nwrote " << out_path << '\n';

    // Gate: every fast path must beat the loop it replaces.
    std::vector<std::string> slower;
    for (const LayerResult& l : layers) {
        if (l.fwd_gemm_us > l.fwd_naive_us) slower.push_back(l.name + " fwd");
        if (l.bwd_gemm_us > l.bwd_naive_us) slower.push_back(l.name + " bwd");
    }
    if (step.fast_us > step.naive_us) slower.push_back("train_step");
    if (eval.fast_us > eval.naive_us) slower.push_back("eval_forward");
    for (const std::string& name : slower) {
        std::cerr << "micro_kernels: FAIL " << name << ": fast path slower than naive\n";
    }
    // Gate: every market kernel must reproduce its reference bit for bit.
    bool market_identical = true;
    for (const MarketRow& m : market) {
        if (m.identical) continue;
        market_identical = false;
        std::cerr << "micro_kernels: FAIL market " << m.name
                  << ": kernel output differs from its reference\n";
    }
    return slower.empty() && market_identical ? 0 : 1;
}
