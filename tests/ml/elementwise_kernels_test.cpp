// ReLU, MaxPool2d and Dropout against references written here, compared
// byte for byte: the textbook ReLU rule, a textbook 2x2 window scan (strict
// >, first slot wins ties) and a lazy per-element dropout loop on a copy of
// the model generator. The layers run without data-dependent branches;
// these tests pin that they still make exactly the choices and draws of
// the plain loops.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "fmore/ml/activations.hpp"
#include "fmore/ml/dropout.hpp"
#include "fmore/ml/pooling.hpp"
#include "fmore/ml/tensor.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::ml {
namespace {

void expect_bytes_equal(const std::vector<float>& got, const std::vector<float>& want,
                        const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
            << what << " element " << i << ": " << got[i] << " vs " << want[i];
    }
}

TEST(ElementwiseKernelTest, ReLUMatchesTextbookRule) {
    // Forward x < 0 ? 0 : x and backward x <= 0 ? 0 : g, bit for bit: -0
    // and NaN (either payload) pass forward unchanged, both zeros stop the
    // gradient, a NaN input lets it through. 67 elements fill whole vectors
    // and leave a tail.
    const float inf = std::numeric_limits<float>::infinity();
    const float denormal = std::numeric_limits<float>::denorm_min() * 3.0F;
    const float nan_a = std::bit_cast<float>(0x7fc00001U);
    const float nan_b = std::bit_cast<float>(0xffc12345U);
    const std::vector<float> specials = {-0.0F, 0.0F,  inf,   -inf, denormal,
                                         -denormal, nan_a, nan_b, 1.0F, -1.0F};
    stats::Rng rng(63);
    Tensor x({1, 67});
    Tensor g({1, 67});
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = i % 3 == 0 ? static_cast<float>(rng.uniform(-1.0, 1.0))
                          : specials[i % specials.size()];
        g[i] = i % 5 == 0 ? -0.0F : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    g[7] = nan_b;
    std::vector<float> want_y(x.size());
    std::vector<float> want_gx(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        want_y[i] = x[i] < 0 ? 0.0F : x[i];
        want_gx[i] = x[i] <= 0 ? 0.0F : g[i];
    }
    ReLU relu;
    Tensor y;
    Tensor gx({1, 67});
    gx.fill(7.0F);
    Tensor other({1, 67});
    other.fill(2.0F);
    for (const bool training : {true, false}) {
        const std::string what = training ? "training" : "eval";
        relu.forward_into(other, y, training); // a mask of all ones first
        relu.forward_into(x, y, training);
        relu.backward_into(g, gx);
        EXPECT_EQ(y.shape(), x.shape()) << what;
        expect_bytes_equal(y.storage(), want_y, what + " forward");
        expect_bytes_equal(gx.storage(), want_gx, what + " backward");
    }
}

struct PoolReference {
    std::vector<float> y;
    std::vector<float> gx;
};

/// Textbook 2x2/stride-2 max pool: scan the window row by row, replace the
/// best only on a strictly greater value, route the gradient to the winner.
PoolReference textbook_pool(const Tensor& x, const Tensor& gy) {
    const std::size_t planes = x.dim(0) * x.dim(1);
    const std::size_t h = x.dim(2);
    const std::size_t w = x.dim(3);
    const std::size_t oh = h / 2;
    const std::size_t ow = w / 2;
    PoolReference ref{std::vector<float>(planes * oh * ow),
                      std::vector<float>(x.size(), 0.0F)};
    std::size_t o = 0;
    for (std::size_t p = 0; p < planes; ++p) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox, ++o) {
                std::size_t best = (p * h + 2 * oy) * w + 2 * ox;
                for (std::size_t dy = 0; dy < 2; ++dy) {
                    for (std::size_t dx = 0; dx < 2; ++dx) {
                        const std::size_t idx = (p * h + 2 * oy + dy) * w + 2 * ox + dx;
                        if (x[idx] > x[best]) best = idx;
                    }
                }
                ref.y[o] = x[best];
                ref.gx[best] += gy[o];
            }
        }
    }
    return ref;
}

TEST(ElementwiseKernelTest, MaxPool2dMatchesTextbookScan) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    stats::Rng rng(61);
    // One layer for every shape: each new (c, h, w) must replace the
    // window corners the last one left, a smaller batch at the same one
    // reads their prefix, and a larger one must grow them.
    MaxPool2d pool;
    // The fl_cifar pool (B16 8x12x12, then a ragged B5 and a B17), odd
    // trailing rows and columns at a batch whose windows do not fill the
    // last vector, and small shapes.
    for (const auto& shape : {std::vector<std::size_t>{2, 3, 7, 9},
                              std::vector<std::size_t>{3, 2, 8, 6},
                              std::vector<std::size_t>{1, 1, 3, 2},
                              std::vector<std::size_t>{16, 8, 12, 12},
                              std::vector<std::size_t>{5, 8, 12, 12},
                              std::vector<std::size_t>{17, 8, 12, 12},
                              std::vector<std::size_t>{5, 3, 13, 11}}) {
        Tensor x(shape);
        const std::size_t planes = shape[0] * shape[1];
        const std::size_t h = shape[2];
        const std::size_t w = shape[3];
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        // Every window gets one of the patterns below in turn; the odd
        // trailing row and column keep their random values and must be
        // ignored.
        std::size_t window = 0;
        for (std::size_t p = 0; p < planes; ++p) {
            for (std::size_t oy = 0; oy < h / 2; ++oy) {
                for (std::size_t ox = 0; ox < w / 2; ++ox, ++window) {
                    const std::size_t tl = (p * h + 2 * oy) * w + 2 * ox;
                    float* slot[4] = {&x[tl], &x[tl + 1], &x[tl + w], &x[tl + w + 1]};
                    // Ties between two later slots a < b, both above the
                    // first slot and the third later slot (6 - a - b):
                    // slot a must win.
                    const auto tie = [&](std::size_t a, std::size_t b) {
                        *slot[a] = *slot[b] = *slot[0] + 0.25F;
                        *slot[6 - a - b] = *slot[0] - 0.25F;
                    };
                    switch (window % 11) {
                    case 0: break; // distinct random values
                    case 1: for (float* v : slot) *v = 0.5F; break;
                    case 2: for (float* v : slot) *v = 0.0F; break; // ReLU's dead window
                    case 3: // signed-zero ties: the first slot's sign must survive
                        *slot[0] = -0.0F;
                        *slot[1] = 0.0F;
                        *slot[2] = -0.0F;
                        *slot[3] = 0.0F;
                        break;
                    case 4: tie(1, 2); break;
                    case 5: tie(1, 3); break;
                    case 6: tie(2, 3); break;
                    default: *slot[window % 11 - 7] = nan; break; // NaN in each slot
                    }
                }
            }
        }
        Tensor gy({shape[0], shape[1], h / 2, w / 2});
        for (std::size_t i = 0; i < gy.size(); ++i)
            gy[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        const PoolReference ref = textbook_pool(x, gy);

        // Reused, dirty buffers: a forward of another input first, and a
        // gradient slot full of garbage.
        Tensor out;
        Tensor gx(shape);
        gx.fill(7.0F);
        Tensor other(shape);
        other.fill(-3.0F);
        pool.forward_into(other, out, /*training=*/true);
        pool.forward_into(x, out, /*training=*/true);
        pool.backward_into(gy, gx);
        const std::string what = "maxpool " + std::to_string(h) + "x" + std::to_string(w);
        expect_bytes_equal(out.storage(), ref.y, what + " output");
        expect_bytes_equal(gx.storage(), ref.gx, what + " routed gradient");
    }
}

/// The lazy per-element loop: one engine draw per four elements, taken
/// when the current word runs out, low 16-bit lane first.
void reference_dropout(const Tensor& x, double rate, stats::Rng& rng,
                       std::vector<float>& mask, std::vector<float>& y) {
    const auto keep_scale = static_cast<float>(1.0 / (1.0 - rate));
    const auto threshold = static_cast<std::uint64_t>(std::llround(rate * 65536.0));
    mask.assign(x.size(), 0.0F);
    y.assign(x.size(), 0.0F);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (i % 4 == 0) bits = rng.engine()();
        const std::uint64_t lane = bits & 0xFFFFULL;
        bits >>= 16;
        if (lane >= threshold) {
            mask[i] = keep_scale;
            y[i] = x[i] * keep_scale;
        }
    }
}

TEST(ElementwiseKernelTest, DropoutMatchesPerElementReference) {
    stats::Rng data(62);
    for (const double rate : {0.25, 0.3}) {
        for (const std::size_t n : {1, 3, 4, 5, 4097}) {
            Tensor x({1, n});
            for (std::size_t i = 0; i < n; ++i)
                x[i] = static_cast<float>(data.uniform(-1.0, 1.0));
            x[0] = -0.0F; // a kept -0 scales to -0, a dropped one becomes +0

            stats::Rng rng(1000 + n);
            (void)rng.engine()(); // start mid-stream
            stats::Rng ref_rng = rng;
            std::vector<float> want_mask;
            std::vector<float> want_y;
            reference_dropout(x, rate, ref_rng, want_mask, want_y);

            Dropout drop(rate);
            drop.attach_rng(&rng);
            Tensor y;
            drop.forward_into(x, y, /*training=*/true);
            // The mask, read back through backward: 1 * mask is exact.
            Tensor ones({1, n});
            ones.fill(1.0F);
            Tensor mask;
            drop.backward_into(ones, mask);

            const std::string what =
                "dropout rate " + std::to_string(rate) + " n " + std::to_string(n);
            EXPECT_EQ(y.shape(), x.shape()) << what;
            expect_bytes_equal(y.storage(), want_y, what + " output");
            expect_bytes_equal(mask.storage(), want_mask, what + " mask");
            // Same number of draws consumed: the generators stay in step.
            EXPECT_EQ(rng.engine()(), ref_rng.engine()()) << what;
        }
    }
}

} // namespace
} // namespace fmore::ml
