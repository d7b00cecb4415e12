// Pins the numerics of the fl_cifar model (`make_cnn_deep` on 3x14x14) and
// of its textbook-loop twin (`reference::naive_cnn_deep`) to a recorded
// constant. The kernel-equivalence suites compare the two with each other,
// so a change that moves both at once (MaxPool2d's tie-break, Dropout's
// mask draws, a summation order) passes them; it fails here.
//
// No softmax loss runs: std::exp and std::log may differ in the last bit
// between C libraries. Every input is drawn with stats::Rng, whose
// `uniform` calls std::uniform_real_distribution; the standard leaves that
// algorithm to the C++ library, so the constant is that of a libstdc++
// build, on any IEEE-754 machine.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/tensor.hpp"
#include "fmore/reference/naive_layers.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::ml {
namespace {

/// 64-bit FNV-1a over the bytes of each float, low byte first.
std::uint64_t fnv1a(std::uint64_t hash, const float* values, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &values[i], sizeof bits);
        for (int byte = 0; byte < 4; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xFFU;
            hash *= 0x100000001b3ULL;
        }
    }
    return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, const std::vector<float>& values) {
    return fnv1a(hash, values.data(), values.size());
}

Tensor uniform_tensor(std::vector<std::size_t> shape, double bound, stats::Rng& rng) {
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.uniform(-bound, bound));
    return t;
}

/// The model's parameter gradients through its public API: from all-zero
/// parameters, one SGD step at learning rate -1 leaves 0 - (-1 * g) = g in
/// every slot, exactly (only the sign of a zero gradient is lost). The
/// parameters are put back afterwards.
std::vector<float> parameter_gradients(Model& model) {
    const std::vector<float> params = model.get_parameters();
    model.set_parameters(std::vector<float>(params.size(), 0.0F));
    model.sgd_step(-1.0);
    std::vector<float> grads = model.get_parameters();
    model.set_parameters(params);
    return grads;
}

/// Three B16 training steps (forward with Dropout on, backward from a fixed
/// output gradient, SGD) and one B128 evaluation forward, hashed: every
/// output, every step's parameter gradients and the final parameters.
std::uint64_t cnn_deep_digest(Model (*make)(const ImageSpec&, std::uint64_t)) {
    stats::Rng rng(20260417);
    Model model = make(ImageSpec{3, 14, 14, 10}, 7);
    const Tensor grad_out = uniform_tensor({16, 10}, 0.0625, rng);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (int step = 0; step < 3; ++step) {
        const Tensor batch = uniform_tensor({16, 3, 14, 14}, 1.0, rng);
        model.zero_grad();
        const Tensor& logits = model.forward(batch, /*training=*/true);
        hash = fnv1a(hash, logits.storage());
        model.backward(grad_out);
        hash = fnv1a(hash, parameter_gradients(model));
        model.sgd_step(0.05);
    }
    const Tensor eval_batch = uniform_tensor({128, 3, 14, 14}, 1.0, rng);
    hash = fnv1a(hash, model.forward(eval_batch, /*training=*/false).storage());
    return fnv1a(hash, model.get_parameters());
}

TEST(NumericsPinTest, CnnDeepTrainingAndEvalDigest) {
    // A kernel rewrite must reproduce this digest bit for bit. A change that
    // moves it changes every training tape and every golden, and has to
    // say so.
    constexpr std::uint64_t kPinned = 0x24c49eb82a0f6269ULL;
    const std::uint64_t fast = cnn_deep_digest(&make_cnn_deep);
    EXPECT_EQ(fast, kPinned) << "make_cnn_deep: digest 0x" << std::hex << fast;
    const std::uint64_t naive = cnn_deep_digest(&reference::naive_cnn_deep);
    EXPECT_EQ(naive, kPinned) << "reference::naive_cnn_deep: digest 0x" << std::hex
                              << naive;
}

} // namespace
} // namespace fmore::ml
