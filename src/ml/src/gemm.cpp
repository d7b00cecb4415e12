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
/// SSE/NEON.
constexpr std::size_t kNR = 16;
/// Register-block height along i. 8 rows x 16 lanes keep eight vector
/// accumulators live: under -ffp-contract=off every product is a separate
/// multiply and add, and four chains cannot hide the add latency.
constexpr std::size_t kMR = 8;

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

/// One MR x NR register tile of gemm_acc (MR = 8, 4 or 1; NR = 16, 8 or 4).
/// Each row is its own chain of multiply-adds, so the rows in flight hide
/// latency even when the j extent is narrow (e.g. conv weight-gradients,
/// where n = kh*kw).
template <std::size_t MR, std::size_t NR>
inline void tile(std::size_t kk, const float* a, diff a_row, diff a_col, const float* b,
                 diff b_row, float* c, diff c_row) {
    float acc[MR][NR];
    for (std::size_t r = 0; r < MR; ++r) {
        const float* crow = c + static_cast<diff>(r) * c_row;
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) acc[r][jj] = crow[jj];
    }
    // Row-outer, lane-inner, with A and B walked by pointer: GCC 12 then
    // keeps the 8-row tile's addresses in registers instead of rebuilding
    // them every k.
    const float* ak = a;
    const float* brow = b;
    for (std::size_t k = 0; k < kk; ++k, ak += a_col, brow += b_row) {
        float av[MR];
        for (std::size_t r = 0; r < MR; ++r) av[r] = ak[static_cast<diff>(r) * a_row];
        for (std::size_t r = 0; r < MR; ++r) {
            FMORE_SIMD
            for (std::size_t jj = 0; jj < NR; ++jj) acc[r][jj] += av[r] * brow[jj];
        }
    }
    for (std::size_t r = 0; r < MR; ++r) {
        float* crow = c + static_cast<diff>(r) * c_row;
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) crow[jj] = acc[r][jj];
    }
}

/// Rows [0, MR) of gemm_acc: 16-, 8- and 4-wide tiles, then scalar j tails.
template <std::size_t MR>
void row_block(std::size_t n, std::size_t kk, const float* a, diff a_row, diff a_col,
               const float* b, diff b_row, float* c, diff c_row) {
    std::size_t j = 0;
    for (; j + kNR <= n; j += kNR) tile<MR, kNR>(kk, a, a_row, a_col, b + j, b_row, c + j, c_row);
    if (j + 8 <= n) {
        tile<MR, 8>(kk, a, a_row, a_col, b + j, b_row, c + j, c_row);
        j += 8;
    }
    if (j + 4 <= n) {
        tile<MR, 4>(kk, a, a_row, a_col, b + j, b_row, c + j, c_row);
        j += 4;
    }
    for (; j < n; ++j) {
        for (std::size_t r = 0; r < MR; ++r) {
            float* cel = c + static_cast<diff>(r) * c_row + j;
            *cel = dot_from(*cel, a + static_cast<diff>(r) * a_row, a_col, b + j, b_row, kk);
        }
    }
}

} // namespace

void gemm_acc(std::size_t m, std::size_t n, std::size_t kk,
              const float* a, diff a_row, diff a_col,
              const float* b, diff b_row,
              float* c, diff c_row) {
    std::size_t i = 0;
    const auto rows = [&](auto mr) {
        row_block<decltype(mr)::value>(n, kk, a + static_cast<diff>(i) * a_row, a_row, a_col,
                                       b, b_row, c + static_cast<diff>(i) * c_row, c_row);
        i += mr;
    };
    while (i + kMR <= m) rows(std::integral_constant<std::size_t, kMR>{});
    if (i + 4 <= m) rows(std::integral_constant<std::size_t, 4>{});
    while (i < m) rows(std::integral_constant<std::size_t, 1>{});
}

// ---------------------------------------------------------------------------
// Convolution kernels
// ---------------------------------------------------------------------------

namespace {

/// Most kernel taps per weight-gradient register tile at run-time extents.
constexpr std::size_t kTapBlock = 8;
/// Output pixels per wide-forward tile.
constexpr std::size_t kPixBlock = 8;
/// Most input channels per input-gradient register tile.
constexpr std::size_t kIcBlock = 8;
/// Most output channels per narrow-forward block.
constexpr std::size_t kOcBlock = 8;
/// Output channels per wide-forward tile: one 16-float vector. A layer of
/// fewer channels runs the narrow forward instead.
constexpr std::size_t kOcLanes = 16;
/// Grid positions per narrow-forward block: one 16-float vector.
constexpr std::size_t kPosLanes = 16;
/// Images per input-gradient lane group: one 16-float vector. Every
/// training step and evaluation slice a round runs has at most 16 rows.
constexpr std::size_t kBatchLanes = 16;

void require_conv2d_geometry(const ConvShape& s, const char* who) {
    if (s.in_c == 0 || s.kh == 0 || s.kw == 0 || s.h < s.kh || s.w < s.kw) {
        throw std::invalid_argument(std::string(who)
                                    + ": empty kernel or input smaller than kernel");
    }
}

static_assert(kTapBlock <= 8 && kIcBlock <= 8 && kPixBlock <= 8 && kOcBlock <= 8,
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

/// Calls fn(std::integral_constant<std::size_t, lanes>{}) with the output
/// channels per weight-gradient register tile: 16 (one zmm) for a layer of
/// at least 16 channels, else 8, so a narrow layer does not spend half of
/// every vector on padding lanes.
template <typename Fn>
void with_oc_lanes(std::size_t out_c, Fn&& fn) {
    if (out_c >= kOcLanes) {
        fn(std::integral_constant<std::size_t, kOcLanes>{});
    } else {
        fn(std::integral_constant<std::size_t, 8>{});
    }
}

/// Calls fn(std::integral_constant<std::size_t, k>{}) with the kernel
/// extent the convolution kernels compile in: 3 for a 3x3 kernel (every
/// `Conv2d` of the model zoo), else 0, which reads the extents from the
/// shape at run time. One kernel source serves both.
template <typename Fn>
void with_kernel_extent(const ConvShape& s, Fn&& fn) {
    if (s.kh == 3 && s.kw == 3) {
        fn(std::integral_constant<std::size_t, 3>{});
    } else {
        fn(std::integral_constant<std::size_t, 0>{});
    }
}

/// A kernel extent: K when the kernel compiles it in, else `runtime`.
template <std::size_t K>
constexpr std::size_t extent(std::size_t runtime) {
    return K != 0 ? K : runtime;
}

/// Writes the weights of output channels [oc0, oc0 + n) to `dst` as
/// [ic][ky][kx][channel], `lanes` floats per tap, then their biases: the
/// forward's block layout. Lanes past n keep what `dst` held.
void relayout_block(const float* weight, const float* bias, std::size_t oc0, std::size_t n,
                    std::size_t taps, std::size_t lanes, float* dst) {
    for (std::size_t o = 0; o < n; ++o) {
        for (std::size_t t = 0; t < taps; ++t) dst[t * lanes + o] = weight[(oc0 + o) * taps + t];
        dst[taps * lanes + o] = bias[oc0 + o];
    }
}

/// One (NPIX output pixels x 16 output channels) tile of the wide forward
/// for one image. The pixels are consecutive in flat (oy, ox) order from
/// p0, so a tile may span output rows. `wl` points at the block's
/// re-laid-out weights ([ic][ky][kx][lane]) followed by its bias lanes.
/// Writes the first `oc_n` lanes to y[o * out_pixels + p].
template <std::size_t K, std::size_t NPIX>
void forward_tile(const float* xb, const float* wl, const ConvShape& s, std::size_t p0,
                  float* y, std::size_t oc_n) {
    const std::size_t kh = extent<K>(s.kh);
    const std::size_t kw = extent<K>(s.kw);
    const std::size_t ow = s.w - kw + 1;
    const std::size_t pixels = (s.h - kh + 1) * ow;
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
    const float* bias = wl + s.in_c * kh * kw * kOcLanes;
    float acc[NPIX][kOcLanes];
    for (auto& row : acc) {
        FMORE_SIMD
        for (std::size_t o = 0; o < kOcLanes; ++o) row[o] = bias[o];
    }
    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
        const float* xc = xb + ic * s.h * s.w;
        float part[NPIX][kOcLanes];
        for (auto& row : part) {
            FMORE_SIMD
            for (std::size_t o = 0; o < kOcLanes; ++o) row[o] = 0.0F;
        }
        for (std::size_t ky = 0; ky < kh; ++ky) {
            for (std::size_t kx = 0; kx < kw; ++kx, wl += kOcLanes) {
                const float* xt = xc + ky * s.w + kx;
                for (std::size_t p = 0; p < NPIX; ++p) {
                    const float xv = xt[off[p]];
                    FMORE_SIMD
                    for (std::size_t o = 0; o < kOcLanes; ++o) part[p][o] += xv * wl[o];
                }
            }
        }
        for (std::size_t p = 0; p < NPIX; ++p) {
            FMORE_SIMD
            for (std::size_t o = 0; o < kOcLanes; ++o) acc[p][o] += part[p][o];
        }
    }
    for (std::size_t o = 0; o < oc_n; ++o) {
        for (std::size_t p = 0; p < NPIX; ++p) y[o * pixels + p0 + p] = acc[p][o];
    }
}

/// The forward for out_c >= 16: output channels in the lanes, 16 at a
/// time, against weights re-laid out into `scratch` as [oc block][ic][ky]
/// [kx][lane], then the block's bias lanes; x is read in place.
template <std::size_t K>
void wide_forward(const float* x, const float* weight, const float* bias, std::size_t out_c,
                  const ConvShape& s, std::size_t batch, std::vector<float>& scratch,
                  float* y) {
    // Lanes past out_c are zero and never stored.
    const std::size_t taps = s.taps();
    const std::size_t block = (taps + 1) * kOcLanes;
    scratch.assign((out_c + kOcLanes - 1) / kOcLanes * block, 0.0F);
    for (std::size_t oc0 = 0; oc0 < out_c; oc0 += kOcLanes) {
        relayout_block(weight, bias, oc0, std::min(kOcLanes, out_c - oc0), taps, kOcLanes,
                       scratch.data() + oc0 / kOcLanes * block);
    }
    const std::size_t pixels = s.out_pixels();
    for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * s.in_c * s.h * s.w;
        for (std::size_t oc0 = 0; oc0 < out_c; oc0 += kOcLanes) {
            const float* wl = scratch.data() + oc0 / kOcLanes * block;
            float* yb = y + (b * out_c + oc0) * pixels;
            const std::size_t oc_n = std::min(kOcLanes, out_c - oc0);
            std::size_t p0 = 0;
            for (; p0 + kPixBlock <= pixels; p0 += kPixBlock) {
                forward_tile<K, kPixBlock>(xb, wl, s, p0, yb, oc_n);
            }
            if (p0 < pixels) {
                with_block_size(pixels - p0, [&](auto np) {
                    forward_tile<K, decltype(np)::value>(xb, wl, s, p0, yb, oc_n);
                });
            }
        }
    }
}

/// One block of the narrow forward for one image: the 16 grid positions
/// q0 + l (position q is output pixel (q / w, q % w) of the input-width
/// grid) x NOC output channels. At tap (ky, kx) the inputs of the 16
/// positions are the one contiguous run at q0 + ky * w + kx of a staged
/// plane. `xs` holds the staged planes, `plane` floats apart; `wl` the
/// block's weights as [ic][ky][kx][o], then its NOC biases. Writes channel
/// o's lanes to grid[o * grid_row + q0 + l].
template <std::size_t K, std::size_t NOC>
void narrow_forward_block(const float* xs, std::size_t plane, const float* wl,
                          const ConvShape& s, std::size_t q0, float* grid,
                          std::size_t grid_row) {
    const std::size_t kh = extent<K>(s.kh);
    const std::size_t kw = extent<K>(s.kw);
    const float* bias = wl + s.in_c * kh * kw * NOC;
    float acc[NOC][kPosLanes];
    for (std::size_t o = 0; o < NOC; ++o) {
        FMORE_SIMD
        for (std::size_t l = 0; l < kPosLanes; ++l) acc[o][l] = bias[o];
    }
    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
        const float* xc = xs + ic * plane + q0;
        float part[NOC][kPosLanes];
        for (auto& row : part) {
            FMORE_SIMD
            for (std::size_t l = 0; l < kPosLanes; ++l) row[l] = 0.0F;
        }
        for (std::size_t ky = 0; ky < kh; ++ky) {
            for (std::size_t kx = 0; kx < kw; ++kx, wl += NOC) {
                const float* xt = xc + ky * s.w + kx;
                for (std::size_t o = 0; o < NOC; ++o) {
                    const float wv = wl[o];
                    FMORE_SIMD
                    for (std::size_t l = 0; l < kPosLanes; ++l) part[o][l] += xt[l] * wv;
                }
            }
        }
        for (std::size_t o = 0; o < NOC; ++o) {
            FMORE_SIMD
            for (std::size_t l = 0; l < kPosLanes; ++l) acc[o][l] += part[o][l];
        }
    }
    for (std::size_t o = 0; o < NOC; ++o) {
        float* row = grid + o * grid_row + q0;
        FMORE_SIMD
        for (std::size_t l = 0; l < kPosLanes; ++l) row[l] = acc[o][l];
    }
}

/// The forward for out_c < 16: output positions in the lanes (gemm.hpp).
/// `scratch` holds each block's weights as [ic][ky][kx][o] and its biases,
/// then one image's input planes staged with zeros past h * w, then the
/// grid rows of one block of output channels.
template <std::size_t K>
void narrow_forward(const float* x, const float* weight, const float* bias,
                    std::size_t out_c, const ConvShape& s, std::size_t batch,
                    std::vector<float>& scratch, float* y) {
    const std::size_t kh = extent<K>(s.kh);
    const std::size_t kw = extent<K>(s.kw);
    const std::size_t oh = s.h - kh + 1;
    const std::size_t ow = s.w - kw + 1;
    const std::size_t hw = s.h * s.w;
    const std::size_t taps = s.in_c * kh * kw;
    // Grid positions 0 .. (oh - 1) * w + ow - 1 hold every output; the
    // last block's shifted loads reach (kh - 1) * w + kw - 1 past its end.
    const std::size_t grid_row =
        ((oh - 1) * s.w + ow + kPosLanes - 1) / kPosLanes * kPosLanes;
    const std::size_t plane = std::max(hw, grid_row + (kh - 1) * s.w + kw - 1);
    // ow rounded up to whole vectors: what a row's copy reads of its grid
    // row, up to kPosLanes - 1 floats past the end of the grid's last row.
    const std::size_t padded_ow = (ow + kPosLanes - 1) / kPosLanes * kPosLanes;
    const std::size_t weights = out_c * (taps + 1);
    scratch.assign(
        weights + s.in_c * plane + std::min(out_c, kOcBlock) * grid_row + kPosLanes, 0.0F);
    float* const staged = scratch.data() + weights;
    float* const grid = staged + s.in_c * plane;
    for (std::size_t oc0 = 0; oc0 < out_c; oc0 += kOcBlock) {
        const std::size_t n = std::min(kOcBlock, out_c - oc0);
        relayout_block(weight, bias, oc0, n, taps, n, scratch.data() + oc0 * (taps + 1));
    }
    const std::size_t pixels = oh * ow;
    for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * s.in_c * hw;
        for (std::size_t ic = 0; ic < s.in_c; ++ic) {
            std::copy_n(xb + ic * hw, hw, staged + ic * plane);
        }
        for (std::size_t oc0 = 0; oc0 < out_c; oc0 += kOcBlock) {
            with_block_size(std::min(kOcBlock, out_c - oc0), [&](auto noc) {
                constexpr std::size_t NOC = decltype(noc)::value;
                const float* wl = scratch.data() + oc0 * (taps + 1);
                for (std::size_t q0 = 0; q0 < grid_row; q0 += kPosLanes) {
                    narrow_forward_block<K, NOC>(staged, plane, wl, s, q0, grid, grid_row);
                }
                // Each output row's ow valid positions. A row copies whole
                // vectors: what it writes past its ow floats lands on rows
                // this loop writes later, so only rows near the end of the
                // block's output copy exactly ow floats.
                float* yb = y + (b * out_c + oc0) * pixels;
                for (std::size_t o = 0; o < NOC; ++o) {
                    for (std::size_t oy = 0; oy < oh; ++oy) {
                        const float* src = grid + o * grid_row + oy * s.w;
                        const std::size_t at = o * pixels + oy * ow;
                        if (at + padded_ow <= NOC * pixels) {
                            for (std::size_t c = 0; c < padded_ow; c += kPosLanes) {
                                FMORE_SIMD
                                for (std::size_t l = 0; l < kPosLanes; ++l) {
                                    yb[at + c + l] = src[c + l];
                                }
                            }
                        } else {
                            std::copy_n(src, ow, yb + at);
                        }
                    }
                }
            });
        }
    }
}

/// The input gradient of NIC input channels at input pixel (iy, ix) for
/// one lane group of images. `gyt` holds the group's output gradient as
/// [oc][output pixel][lane]; `ker` points at weight[0][ic0][0][0]. Each
/// (channel, image) accumulator starts at +0 and adds g * w over the
/// pixel's valid (output channel, output pixel) pairs only: channel
/// ascending, then output pixel ascending, the order of the reference
/// scatter loops. Writes the first `lanes` images of channel r to
/// dst[lane * img + r * h * w].
template <std::size_t K, std::size_t NIC>
void input_grad_pixel(const float* gyt, const float* ker, std::size_t out_c,
                      const ConvShape& s, std::size_t iy, std::size_t ix, float* dst,
                      std::size_t img, std::size_t lanes) {
    const std::size_t kh = extent<K>(s.kh);
    const std::size_t kw = extent<K>(s.kw);
    const std::size_t oh = s.h - kh + 1;
    const std::size_t ow = s.w - kw + 1;
    const std::size_t plane = oh * ow * kBatchLanes;
    const std::size_t ktaps = kh * kw;
    // The output rows and columns whose window covers (iy, ix).
    const std::size_t oy0 = iy + 1 > kh ? iy + 1 - kh : 0;
    const std::size_t oy1 = std::min(iy + 1, oh);
    const std::size_t ox0 = ix + 1 > kw ? ix + 1 - kw : 0;
    const std::size_t ox1 = std::min(ix + 1, ow);
    float acc[NIC][kBatchLanes];
    for (auto& row : acc) {
        FMORE_SIMD
        for (std::size_t l = 0; l < kBatchLanes; ++l) row[l] = 0.0F;
    }
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        const float* g_oc = gyt + oc * plane;
        const float* ker_oc = ker + oc * s.in_c * ktaps;
        for (std::size_t oy = oy0; oy < oy1; ++oy) {
            for (std::size_t ox = ox0; ox < ox1; ++ox) {
                const float* g = g_oc + (oy * ow + ox) * kBatchLanes;
                const float* wt = ker_oc + (iy - oy) * kw + (ix - ox);
                for (std::size_t r = 0; r < NIC; ++r) {
                    const float wv = wt[r * ktaps];
                    FMORE_SIMD
                    for (std::size_t l = 0; l < kBatchLanes; ++l) acc[r][l] += g[l] * wv;
                }
            }
        }
    }
    const std::size_t hw = s.h * s.w;
    for (std::size_t r = 0; r < NIC; ++r) {
        for (std::size_t l = 0; l < lanes; ++l) dst[l * img + r * hw] = acc[r][l];
    }
}

/// One (NT taps x OC output channels) tile of the weight gradient,
/// accumulated over the whole batch. Taps are flat (ic, ky, kx) indices
/// starting at t0; at compile-time extents (K != 0) a tile is one input
/// channel's K * K taps, whose offsets ky * w + kx need no table. `gyt`
/// points at lane oc0 of the transposed gradient ([batch][pixel][ocp]);
/// `wg` at weight_grad[oc0][t0]. Only the first `oc_n` lanes are real
/// channels. The block's first tile also sums the bias gradient into
/// `bg` (bias_grad[oc0]; null in the other tiles) in the same walk, so
/// that sum's dependent chain hides under the tile's. Kept out of line:
/// inlined into the dispatch lambdas, GCC 12 spilled its tap offsets.
template <std::size_t K, std::size_t NT, std::size_t OC>
[[gnu::noinline]] void weight_grad_tile(const float* x, const float* gyt, std::size_t ocp,
                                        std::size_t batch, const ConvShape& s,
                                        std::size_t t0, float* wg, float* bg,
                                        std::size_t oc_n) {
    static_assert(K == 0 || NT == K * K, "a compile-time-extent tile is one input channel");
    const std::size_t kh = extent<K>(s.kh);
    const std::size_t kw = extent<K>(s.kw);
    const std::size_t oh = s.h - kh + 1;
    const std::size_t ow = s.w - kw + 1;
    const std::size_t taps = s.in_c * kh * kw;
    const std::size_t ktaps = kh * kw;
    std::size_t off[NT]; // each tap's offset inside an image
    float acc[NT][OC];
    for (std::size_t t = 0; t < NT; ++t) {
        const std::size_t tap = t0 + t;
        const std::size_t ic = tap / ktaps;
        const std::size_t ky = tap % ktaps / kw;
        const std::size_t kx = tap % kw;
        off[t] = (ic * s.h + ky) * s.w + kx;
        for (std::size_t o = 0; o < OC; ++o) {
            acc[t][o] = o < oc_n ? wg[o * taps + t] : 0.0F;
        }
    }
    // Bias: one running sum per channel over (image, pixel).
    float bacc[OC];
    for (std::size_t o = 0; o < OC; ++o) bacc[o] = bg != nullptr && o < oc_n ? bg[o] : 0.0F;
    // At compile-time extents the tile's input channel starts at off[0].
    const float* xk = x + (K != 0 ? off[0] : 0);
    const auto walk = [&](auto with_bias) {
        for (std::size_t b = 0; b < batch; ++b) {
            const float* xb = xk + b * s.in_c * s.h * s.w;
            const float* g = gyt + b * oh * ow * ocp;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                const float* xrow = xb + oy * s.w;
                for (std::size_t ox = 0; ox < ow; ++ox, g += ocp) {
                    if constexpr (decltype(with_bias)::value) {
                        FMORE_SIMD
                        for (std::size_t o = 0; o < OC; ++o) bacc[o] += g[o];
                    }
                    for (std::size_t t = 0; t < NT; ++t) {
                        const float xv =
                            K != 0 ? xrow[t / K * s.w + t % K + ox] : xrow[off[t] + ox];
                        FMORE_SIMD
                        for (std::size_t o = 0; o < OC; ++o) acc[t][o] += g[o] * xv;
                    }
                }
            }
        }
    };
    if (bg != nullptr) {
        walk(std::true_type{});
    } else {
        walk(std::false_type{});
    }
    for (std::size_t t = 0; t < NT; ++t) {
        for (std::size_t o = 0; o < oc_n; ++o) wg[o * taps + t] = acc[t][o];
    }
    if (bg != nullptr) {
        for (std::size_t o = 0; o < oc_n; ++o) bg[o] = bacc[o];
    }
}

} // namespace

void conv2d_forward(const float* x, const float* weight, const float* bias,
                    std::size_t out_c, const ConvShape& s, std::size_t batch,
                    std::vector<float>& scratch, float* y) {
    require_conv2d_geometry(s, "conv2d_forward");
    with_kernel_extent(s, [&](auto k) {
        constexpr std::size_t K = decltype(k)::value;
        if (out_c < kOcLanes) {
            narrow_forward<K>(x, weight, bias, out_c, s, batch, scratch, y);
        } else {
            wide_forward<K>(x, weight, bias, out_c, s, batch, scratch, y);
        }
    });
}

void conv2d_input_grad(const float* gy, const float* weight, std::size_t out_c,
                       const ConvShape& s, std::size_t batch,
                       std::vector<float>& scratch, float* gx) {
    require_conv2d_geometry(s, "conv2d_input_grad");
    const std::size_t pixels = s.out_pixels();
    const std::size_t hw = s.h * s.w;
    const std::size_t img = s.in_c * hw;
    const std::size_t ktaps = s.kh * s.kw;
    scratch.resize(out_c * pixels * kBatchLanes);
    for (std::size_t b0 = 0; b0 < batch; b0 += kBatchLanes) {
        const std::size_t lanes = std::min(kBatchLanes, batch - b0);
        // The group's output gradient as [oc][pixel][lane]; lanes past the
        // batch are zero and never stored.
        for (std::size_t i = 0; i < out_c * pixels; ++i) {
            float* dst = scratch.data() + i * kBatchLanes;
            for (std::size_t l = 0; l < kBatchLanes; ++l) {
                dst[l] = l < lanes ? gy[(b0 + l) * out_c * pixels + i] : 0.0F;
            }
        }
        float* gxb = gx + b0 * img;
        with_kernel_extent(s, [&](auto k) {
            for (std::size_t ic0 = 0; ic0 < s.in_c; ic0 += kIcBlock) {
                with_block_size(std::min(kIcBlock, s.in_c - ic0), [&](auto nic) {
                    for (std::size_t iy = 0; iy < s.h; ++iy) {
                        for (std::size_t ix = 0; ix < s.w; ++ix) {
                            input_grad_pixel<decltype(k)::value, decltype(nic)::value>(
                                scratch.data(), weight + ic0 * ktaps, out_c, s, iy, ix,
                                gxb + ic0 * hw + iy * s.w + ix, img, lanes);
                        }
                    }
                });
            }
        });
    }
}

void conv2d_weight_grad(const float* x, const float* gy, std::size_t out_c,
                        const ConvShape& s, std::size_t batch,
                        std::vector<float>& scratch, float* weight_grad,
                        float* bias_grad) {
    require_conv2d_geometry(s, "conv2d_weight_grad");
    with_oc_lanes(out_c, [&](auto lanes) {
        constexpr std::size_t oc_lanes = decltype(lanes)::value;
        const std::size_t p = s.out_h() * s.out_w();
        const std::size_t ocp = (out_c + oc_lanes - 1) / oc_lanes * oc_lanes;
        // gy transposed to [image][pixel][ocp], pixels outermost so the
        // stores run contiguous: a tile reads its output channels as one
        // vector per pixel. Padding lanes are zero.
        scratch.resize(batch * p * ocp);
        for (std::size_t b = 0; b < batch; ++b) {
            const float* gyb = gy + b * out_c * p;
            float* dst = scratch.data() + b * p * ocp;
            for (std::size_t px = 0; px < p; ++px, dst += ocp) {
                for (std::size_t o = 0; o < ocp; ++o) {
                    dst[o] = o < out_c ? gyb[o * p + px] : 0.0F;
                }
            }
        }
        const std::size_t taps = s.taps();
        for (std::size_t oc0 = 0; oc0 < out_c; oc0 += oc_lanes) {
            const std::size_t oc_n = std::min(oc_lanes, out_c - oc0);
            const float* gyt = scratch.data() + oc0;
            float* wg = weight_grad + oc0 * taps;
            const auto bg = [&](std::size_t t0) { return t0 == 0 ? bias_grad + oc0 : nullptr; };
            with_kernel_extent(s, [&](auto k) {
                constexpr std::size_t K = decltype(k)::value;
                if constexpr (K != 0) {
                    for (std::size_t t0 = 0; t0 < taps; t0 += K * K) {
                        weight_grad_tile<K, K * K, oc_lanes>(x, gyt, ocp, batch, s, t0,
                                                             wg + t0, bg(t0), oc_n);
                    }
                } else {
                    for (std::size_t t0 = 0; t0 < taps; t0 += kTapBlock) {
                        with_block_size(std::min(kTapBlock, taps - t0), [&](auto nt) {
                            weight_grad_tile<0, decltype(nt)::value, oc_lanes>(
                                x, gyt, ocp, batch, s, t0, wg + t0, bg(t0), oc_n);
                        });
                    }
                }
            });
        }
    });
}

} // namespace fmore::ml
