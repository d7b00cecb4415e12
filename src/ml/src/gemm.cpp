#include "fmore/ml/gemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

// Vectorization hint for the unit-stride j loops. Independent accumulators
// only — never a reduction — so the hint cannot reassociate any single
// element's sum and bit-exactness is preserved. Compiled away to nothing
// when the build has no OpenMP-simd support.
#if defined(FMORE_OPENMP_SIMD)
#define FMORE_SIMD _Pragma("omp simd")
#else
#define FMORE_SIMD
#endif

namespace fmore::ml {

// ---------------------------------------------------------------------------
// GEMM micro-kernels
// ---------------------------------------------------------------------------

namespace {

/// Register-block width along j. 16 floats = one zmm register on AVX-512
/// (the build's width where the host has it), two ymm on AVX, four xmm on
/// SSE/NEON; with the 4-row i-block below the hot loop keeps 4-16 vector
/// accumulators live, enough to hide FMA latency.
constexpr std::size_t kNR = 16;
/// Register-block height along i.
constexpr std::size_t kMR = 4;

using diff = std::ptrdiff_t;

/// Scalar reference element: seed + sum_k a[k]*b[k], ascending k.
inline float dot_from(float seed, const float* a, diff a_col, const float* b,
                      diff b_row, std::size_t kk) {
    float acc = seed;
    for (std::size_t k = 0; k < kk; ++k) {
        acc += a[static_cast<diff>(k) * a_col] * b[static_cast<diff>(k) * b_row];
    }
    return acc;
}

/// One kMR x NR register tile of gemm_acc (NR = 16, 8 or 4). Four rows in
/// flight keep enough independent FMA chains to hide latency even when the
/// j extent is narrow (e.g. conv weight-gradients, where n = kh*kw).
template <std::size_t NR>
inline void tile_mr_w(std::size_t kk, const float* a, diff a_row, diff a_col,
                      const float* b, diff b_row, float* c, diff c_row) {
    float acc[kMR][NR];
    for (std::size_t r = 0; r < kMR; ++r) {
        const float* crow = c + static_cast<diff>(r) * c_row;
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) acc[r][jj] = crow[jj];
    }
    for (std::size_t k = 0; k < kk; ++k) {
        const float* brow = b + static_cast<diff>(k) * b_row;
        const float a0 = a[static_cast<diff>(k) * a_col];
        const float a1 = a[a_row + static_cast<diff>(k) * a_col];
        const float a2 = a[2 * a_row + static_cast<diff>(k) * a_col];
        const float a3 = a[3 * a_row + static_cast<diff>(k) * a_col];
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) {
            const float bv = brow[jj];
            acc[0][jj] += a0 * bv;
            acc[1][jj] += a1 * bv;
            acc[2][jj] += a2 * bv;
            acc[3][jj] += a3 * bv;
        }
    }
    for (std::size_t r = 0; r < kMR; ++r) {
        float* crow = c + static_cast<diff>(r) * c_row;
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) crow[jj] = acc[r][jj];
    }
}

/// One 1 x NR tile of gemm_acc (i-edge rows and j-tails; NR = 16, 8 or 4).
template <std::size_t NR>
inline void tile_1_w(std::size_t kk, const float* a, diff a_col, const float* b,
                     diff b_row, float* c) {
    float acc[NR];
    FMORE_SIMD
    for (std::size_t jj = 0; jj < NR; ++jj) acc[jj] = c[jj];
    for (std::size_t k = 0; k < kk; ++k) {
        const float* brow = b + static_cast<diff>(k) * b_row;
        const float av = a[static_cast<diff>(k) * a_col];
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) acc[jj] += av * brow[jj];
    }
    FMORE_SIMD
    for (std::size_t jj = 0; jj < NR; ++jj) c[jj] = acc[jj];
}

} // namespace

void gemm_acc(std::size_t m, std::size_t n, std::size_t kk,
              const float* a, diff a_row, diff a_col,
              const float* b, diff b_row,
              float* c, diff c_row) {
    std::size_t i = 0;
    for (; i + kMR <= m; i += kMR) {
        const float* arow = a + static_cast<diff>(i) * a_row;
        float* crow = c + static_cast<diff>(i) * c_row;
        std::size_t j = 0;
        for (; j + kNR <= n; j += kNR) {
            tile_mr_w<kNR>(kk, arow, a_row, a_col, b + j, b_row, crow + j, c_row);
        }
        if (j + 8 <= n) {
            tile_mr_w<8>(kk, arow, a_row, a_col, b + j, b_row, crow + j, c_row);
            j += 8;
        }
        if (j + 4 <= n) {
            tile_mr_w<4>(kk, arow, a_row, a_col, b + j, b_row, crow + j, c_row);
            j += 4;
        }
        for (; j < n; ++j) {
            for (std::size_t r = 0; r < kMR; ++r) {
                float* cel = crow + static_cast<diff>(r) * c_row + j;
                *cel = dot_from(*cel, arow + static_cast<diff>(r) * a_row, a_col,
                                b + j, b_row, kk);
            }
        }
    }
    for (; i < m; ++i) {
        const float* arow = a + static_cast<diff>(i) * a_row;
        float* crow = c + static_cast<diff>(i) * c_row;
        std::size_t j = 0;
        for (; j + kNR <= n; j += kNR) {
            tile_1_w<kNR>(kk, arow, a_col, b + j, b_row, crow + j);
        }
        if (j + 8 <= n) {
            tile_1_w<8>(kk, arow, a_col, b + j, b_row, crow + j);
            j += 8;
        }
        if (j + 4 <= n) {
            tile_1_w<4>(kk, arow, a_col, b + j, b_row, crow + j);
            j += 4;
        }
        for (; j < n; ++j) {
            crow[j] = dot_from(crow[j], arow, a_col, b + j, b_row, kk);
        }
    }
}

// ---------------------------------------------------------------------------
// Convolution kernels
// ---------------------------------------------------------------------------

namespace {

/// Output channels per forward and weight-gradient register tile (one
/// 8-float vector).
constexpr std::size_t kOcBlock = 8;
/// Most kernel taps per weight-gradient register tile.
constexpr std::size_t kTapBlock = 8;
/// Output pixels per forward tile; input pixels per input-gradient tile
/// (one 8-float vector).
constexpr std::size_t kPixBlock = 8;
/// Most input channels per input-gradient register tile.
constexpr std::size_t kIcBlock = 8;

void require_conv2d_geometry(const ConvShape& s, const char* who) {
    if (s.in_c == 0 || s.kh == 0 || s.kw == 0 || s.h < s.kh || s.w < s.kw) {
        throw std::invalid_argument(std::string(who)
                                    + ": empty kernel or input smaller than kernel");
    }
}

static_assert(kTapBlock <= 8 && kIcBlock <= 8 && kPixBlock <= 8,
              "with_block_size covers 1..8");

/// Calls fn(std::integral_constant<std::size_t, n>{}) for a runtime n in
/// [1, 8]: picks the register-tile instantiation for a block tail.
template <typename Fn>
void with_block_size(std::size_t n, Fn&& fn) {
    switch (n) {
    case 1: fn(std::integral_constant<std::size_t, 1>{}); break;
    case 2: fn(std::integral_constant<std::size_t, 2>{}); break;
    case 3: fn(std::integral_constant<std::size_t, 3>{}); break;
    case 4: fn(std::integral_constant<std::size_t, 4>{}); break;
    case 5: fn(std::integral_constant<std::size_t, 5>{}); break;
    case 6: fn(std::integral_constant<std::size_t, 6>{}); break;
    case 7: fn(std::integral_constant<std::size_t, 7>{}); break;
    default: fn(std::integral_constant<std::size_t, 8>{}); break;
    }
}

/// One (NPIX output pixels x kOcBlock output channels) tile of the forward
/// pass for one image. The pixels are consecutive in flat (oy, ox) order
/// from p0, so a tile may span output rows. `wl` points at the block's
/// re-laid-out weights ([ic][ky][kx][lane]) followed by its bias lanes.
/// Writes the first `oc_n` lanes to y[o * out_pixels + p].
template <std::size_t NPIX>
void forward_tile(const float* xb, const float* wl, const ConvShape& s, std::size_t p0,
                  float* y, std::size_t oc_n) {
    const std::size_t ow = s.out_w();
    const std::size_t pixels = s.out_pixels();
    std::size_t off[NPIX]; // each pixel's top-left tap inside an input plane
    std::size_t oy = p0 / ow;
    std::size_t ox = p0 % ow;
    for (std::size_t p = 0; p < NPIX; ++p) {
        off[p] = oy * s.w + ox;
        if (++ox == ow) {
            ox = 0;
            ++oy;
        }
    }
    const float* bias = wl + s.taps() * kOcBlock;
    float acc[NPIX][kOcBlock];
    for (auto& row : acc) {
        FMORE_SIMD
        for (std::size_t o = 0; o < kOcBlock; ++o) row[o] = bias[o];
    }
    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
        const float* xc = xb + ic * s.h * s.w;
        float part[NPIX][kOcBlock];
        for (auto& row : part) {
            FMORE_SIMD
            for (std::size_t o = 0; o < kOcBlock; ++o) row[o] = 0.0F;
        }
        for (std::size_t ky = 0; ky < s.kh; ++ky) {
            for (std::size_t kx = 0; kx < s.kw; ++kx, wl += kOcBlock) {
                const float* xt = xc + ky * s.w + kx;
                for (std::size_t p = 0; p < NPIX; ++p) {
                    const float xv = xt[off[p]];
                    FMORE_SIMD
                    for (std::size_t o = 0; o < kOcBlock; ++o) part[p][o] += xv * wl[o];
                }
            }
        }
        for (std::size_t p = 0; p < NPIX; ++p) {
            FMORE_SIMD
            for (std::size_t o = 0; o < kOcBlock; ++o) acc[p][o] += part[p][o];
        }
    }
    for (std::size_t o = 0; o < oc_n; ++o) {
        for (std::size_t p = 0; p < NPIX; ++p) y[o * pixels + p0 + p] = acc[p][o];
    }
}

/// One (NIC input channels x kPixBlock input pixels) tile of the input
/// gradient. `pad` points at the tile's first pixel inside output channel
/// 0's padded plane (planes are `plane` floats apart); `ker` points at
/// weight[0][ic0][0][0]. Writes the first `len` pixels of each row to
/// dst[r * dst_row].
template <std::size_t NIC>
void input_grad_tile(const float* pad, std::size_t plane, std::size_t out_c,
                     const float* ker, const ConvShape& s, float* dst,
                     std::size_t dst_row, std::size_t len) {
    const std::size_t taps = s.kh * s.kw;
    const std::size_t oc_stride = s.in_c * taps;
    float acc[NIC][kPixBlock];
    for (auto& row : acc) {
        FMORE_SIMD
        for (std::size_t v = 0; v < kPixBlock; ++v) row[v] = 0.0F;
    }
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        const float* src_oc = pad + oc * plane;
        const float* ker_oc = ker + oc * oc_stride;
        for (std::size_t ky = s.kh; ky-- > 0;) {
            for (std::size_t kx = s.kw; kx-- > 0;) {
                const float* src = src_oc - (ky * s.w + kx);
                const float* wt = ker_oc + ky * s.kw + kx;
                for (std::size_t r = 0; r < NIC; ++r) {
                    const float wv = wt[r * taps];
                    FMORE_SIMD
                    for (std::size_t v = 0; v < kPixBlock; ++v) acc[r][v] += src[v] * wv;
                }
            }
        }
    }
    for (std::size_t r = 0; r < NIC; ++r) {
        for (std::size_t v = 0; v < len; ++v) dst[r * dst_row + v] = acc[r][v];
    }
}

/// One (NT taps x kOcBlock output channels) tile of the weight gradient,
/// accumulated over the whole batch. Taps are flat (ic, ky, kx) indices
/// starting at t0; `gyt` points at lane oc0 of the transposed gradient
/// ([batch][pixel][ocp]); `wg` at weight_grad[oc0][t0]. Only the first
/// `oc_n` lanes are real channels.
template <std::size_t NT>
void weight_grad_tile(const float* x, const float* gyt, std::size_t ocp,
                      std::size_t batch, const ConvShape& s, std::size_t t0,
                      float* wg, std::size_t oc_n) {
    const std::size_t oh = s.out_h();
    const std::size_t ow = s.out_w();
    const std::size_t taps = s.taps();
    const std::size_t ktaps = s.kh * s.kw;
    std::size_t off[NT]; // each tap's offset inside an image
    float acc[NT][kOcBlock];
    for (std::size_t t = 0; t < NT; ++t) {
        const std::size_t tap = t0 + t;
        const std::size_t ic = tap / ktaps;
        const std::size_t ky = tap % ktaps / s.kw;
        const std::size_t kx = tap % s.kw;
        off[t] = (ic * s.h + ky) * s.w + kx;
        for (std::size_t o = 0; o < kOcBlock; ++o) {
            acc[t][o] = o < oc_n ? wg[o * taps + t] : 0.0F;
        }
    }
    for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * s.in_c * s.h * s.w;
        const float* g = gyt + b * oh * ow * ocp;
        for (std::size_t oy = 0; oy < oh; ++oy) {
            const float* xrow = xb + oy * s.w;
            for (std::size_t ox = 0; ox < ow; ++ox, g += ocp) {
                for (std::size_t t = 0; t < NT; ++t) {
                    const float xv = xrow[off[t] + ox];
                    FMORE_SIMD
                    for (std::size_t o = 0; o < kOcBlock; ++o) acc[t][o] += g[o] * xv;
                }
            }
        }
    }
    for (std::size_t t = 0; t < NT; ++t) {
        for (std::size_t o = 0; o < oc_n; ++o) wg[o * taps + t] = acc[t][o];
    }
}

} // namespace

void conv2d_forward(const float* x, const float* weight, const float* bias,
                    std::size_t out_c, const ConvShape& s, std::size_t batch,
                    std::vector<float>& scratch, float* y) {
    require_conv2d_geometry(s, "conv2d_forward");
    // Weights per block of 8 output channels as [ic][ky][kx][lane], then
    // the block's bias lanes. Lanes past out_c are zero and never stored.
    const std::size_t taps = s.taps();
    const std::size_t block = (taps + 1) * kOcBlock;
    scratch.assign((out_c + kOcBlock - 1) / kOcBlock * block, 0.0F);
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        float* dst = scratch.data() + oc / kOcBlock * block + oc % kOcBlock;
        for (std::size_t t = 0; t < taps; ++t) dst[t * kOcBlock] = weight[oc * taps + t];
        dst[taps * kOcBlock] = bias[oc];
    }
    const std::size_t pixels = s.out_pixels();
    for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * s.in_c * s.h * s.w;
        for (std::size_t oc0 = 0; oc0 < out_c; oc0 += kOcBlock) {
            const float* wl = scratch.data() + oc0 / kOcBlock * block;
            float* yb = y + (b * out_c + oc0) * pixels;
            const std::size_t oc_n = std::min(kOcBlock, out_c - oc0);
            std::size_t p0 = 0;
            for (; p0 + kPixBlock <= pixels; p0 += kPixBlock) {
                forward_tile<kPixBlock>(xb, wl, s, p0, yb, oc_n);
            }
            if (p0 < pixels) {
                with_block_size(pixels - p0, [&](auto np) {
                    forward_tile<decltype(np)::value>(xb, wl, s, p0, yb, oc_n);
                });
            }
        }
    }
}

void conv2d_input_grad(const float* gy, const float* weight, std::size_t out_c,
                       const ConvShape& s, std::size_t batch,
                       std::vector<float>& scratch, float* gx) {
    require_conv2d_geometry(s, "conv2d_input_grad");
    const std::size_t oh = s.out_h();
    const std::size_t ow = s.out_w();
    const std::size_t hw = s.h * s.w;
    const std::size_t blocks = (hw + kPixBlock - 1) / kPixBlock;
    // Input pixel i reads padded position lead + i - (ky*w + kx): up to
    // `lead` before the plane, and the last tile runs past h*w. Output
    // rows sit at the input's row width, so a tap that falls off a row's
    // left edge wraps onto the previous row's zero columns [ow, w).
    const std::size_t lead = (s.kh - 1) * s.w + (s.kw - 1);
    const std::size_t plane = lead + blocks * kPixBlock;
    scratch.assign(out_c * plane, 0.0F);
    const std::size_t taps = s.kh * s.kw;
    for (std::size_t b = 0; b < batch; ++b) {
        const float* gyb = gy + b * out_c * oh * ow;
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
                const float* src = gyb + (oc * oh + oy) * ow;
                float* dst = scratch.data() + oc * plane + lead + oy * s.w;
                FMORE_SIMD
                for (std::size_t ox = 0; ox < ow; ++ox) dst[ox] = src[ox];
            }
        }
        float* gxb = gx + b * s.in_c * hw;
        for (std::size_t ic0 = 0; ic0 < s.in_c; ic0 += kIcBlock) {
            with_block_size(std::min(kIcBlock, s.in_c - ic0), [&](auto nic) {
                for (std::size_t i0 = 0; i0 < hw; i0 += kPixBlock) {
                    input_grad_tile<decltype(nic)::value>(
                        scratch.data() + lead + i0, plane, out_c, weight + ic0 * taps, s,
                        gxb + ic0 * hw + i0, hw, std::min(kPixBlock, hw - i0));
                }
            });
        }
    }
}

void conv2d_weight_grad(const float* x, const float* gy, std::size_t out_c,
                        const ConvShape& s, std::size_t batch,
                        std::vector<float>& scratch, float* weight_grad,
                        float* bias_grad) {
    require_conv2d_geometry(s, "conv2d_weight_grad");
    const std::size_t p = s.out_h() * s.out_w();
    const std::size_t ocp = (out_c + kOcBlock - 1) / kOcBlock * kOcBlock;
    // gy transposed to [image][pixel][ocp]: a tile reads its output
    // channels as one vector per pixel. Padding lanes are zero.
    scratch.resize(batch * p * ocp);
    for (std::size_t b = 0; b < batch; ++b) {
        const float* gyb = gy + b * out_c * p;
        float* dst = scratch.data() + b * p * ocp;
        for (std::size_t o = 0; o < ocp; ++o) {
            for (std::size_t px = 0; px < p; ++px) {
                dst[px * ocp + o] = o < out_c ? gyb[o * p + px] : 0.0F;
            }
        }
    }
    const std::size_t taps = s.taps();
    for (std::size_t oc0 = 0; oc0 < out_c; oc0 += kOcBlock) {
        const std::size_t oc_n = std::min(kOcBlock, out_c - oc0);
        const float* gyt = scratch.data() + oc0;
        // Bias: one running sum per channel over (image, pixel).
        float bacc[kOcBlock];
        for (std::size_t o = 0; o < kOcBlock; ++o) {
            bacc[o] = o < oc_n ? bias_grad[oc0 + o] : 0.0F;
        }
        for (std::size_t i = 0; i < batch * p; ++i) {
            const float* g = gyt + i * ocp;
            FMORE_SIMD
            for (std::size_t o = 0; o < kOcBlock; ++o) bacc[o] += g[o];
        }
        for (std::size_t o = 0; o < oc_n; ++o) bias_grad[oc0 + o] = bacc[o];
        for (std::size_t t0 = 0; t0 < taps; t0 += kTapBlock) {
            with_block_size(std::min(kTapBlock, taps - t0), [&](auto nt) {
                weight_grad_tile<decltype(nt)::value>(x, gyt, ocp, batch, s, t0,
                                                      weight_grad + oc0 * taps + t0,
                                                      oc_n);
            });
        }
    }
}

} // namespace fmore::ml
