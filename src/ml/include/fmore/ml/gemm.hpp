#pragma once

/// @file gemm.hpp
/// The micro-kernel substrate of the ml layer: a register-blocked,
/// cache-friendly float GEMM and three register-tiled convolution kernels
/// (forward, weight gradient, input gradient). `Conv2d`, `Dense` and
/// `Lstm`'s gate matmuls are all built on these kernels, their only path.
/// The textbook loops they replaced live outside the libraries, in the
/// test- and bench-only `fmore_reference` target
/// (`fmore/reference/naive_layers.hpp`).
///
/// ## Bit-exactness contract
///
/// The kernels are not merely "close" to the textbook loops — they are
/// bit-identical. Every kernel accumulates each output element's terms in
/// the exact summation order of the reference loops (ascending k, single
/// running accumulator seeded from C), and vectorization is only applied
/// across *independent* accumulators (the unit-stride j dimension), which
/// never reassociates any single element's sum. The build pins
/// `-ffp-contract=off`, so every `acc += a * b` is a separate multiply and
/// add in both, whichever loop the compiler vectorized. This is what lets
/// the reference layers serve as an exact equivalence oracle in tests, and
/// keeps every experiment's metrics unchanged by the kernels.
///
/// Tile shapes. A vector lane is always one output element, so the shapes
/// change only speed:
///   - GEMM: 8 rows x 16 lanes (one zmm register on AVX-512), then a 4-row
///     and 1-row tail; 8- and 4-wide tiles, then scalar elements, for the
///     j tail. Eight rows in flight keep eight independent multiply-add
///     chains, enough to hide the add latency that -ffp-contract=off
///     exposes.
///   - Convolution forward, wide (out_c >= 16): output channels in the
///     lanes, 16 at a time, up to 8 output pixels per tile.
///   - Convolution forward, narrow (out_c < 16): output pixels in the
///     lanes, 16 grid positions at a time (below), up to 8 output channels
///     per block, so the 8-channel first layers of the model zoo fill whole
///     16-lane vectors instead of half of each.
///   - Convolution weight gradient: output channels in the lanes, 16 wide
///     for a layer of at least 16 channels and 8 below it (a narrow layer
///     would spend half of every 16-lane vector on padding lanes).
///   - Convolution input gradient: images in the lanes, 16 at a time (every
///     step and evaluation slice a round runs has at most 16 rows; a larger
///     batch runs in groups of 16), up to 8 input channels per tile.
/// Every width and path follows from the layer's shape; nothing selects
/// it. The convolution kernels compile the kernel extents in when they are
/// 3x3 (every `Conv2d` of the model zoo) and read them at run time
/// otherwise: one kernel source with the extents as a template parameter,
/// so both instantiations do the same arithmetic in the same order. A
/// 3x3 weight-gradient tile holds one input channel's 9 taps, other
/// extents up to 8 flat taps.
///
/// The forward kernel reproduces the reference loops' two-level sum. Each
/// output starts as its bias; for each input channel in ascending order a
/// partial sum starts at +0 and adds weight * input over the taps in
/// ascending (ky, kx) order, then is added to the output. Every lane of a
/// register tile is its own output element, so no sum is split or
/// reordered. The partial must start at +0, not at its first product: with
/// a -0 bias and products that are all -0, the reference ends on +0.
///
/// The narrow forward's lanes are 16 consecutive positions q = oy * w + ox
/// of the *input-width* grid: position q is output (oy, ox) when
/// ox < out_w. At tap (ky, kx) the inputs of the 16 positions are then one
/// contiguous run of the input plane, at q + ky * w + kx; no im2col, no
/// transpose. Lanes with ox >= out_w, and positions past the last output
/// ((out_h - 1) * w + out_w of them hold every output), compute values
/// that are never stored: each block goes to a grid row in scratch, and
/// only each output row's out_w valid positions are copied out. A junk lane
/// shares no accumulator with a valid one, so it cannot move a stored bit.
/// The last block's shifted loads reach up to (kh - 1) * w + kw - 1 floats
/// past its last position, which for the last image could lie past the
/// input tensor. So each image is first copied into staged planes of
/// max(h * w, 16 * blocks + (kh - 1) * w + kw - 1) floats, zero past
/// h * w. The copy is exact, every valid position reads only its own
/// window, which lies inside h * w, and the zeros reach junk lanes only.
/// An output row is copied out in whole vectors when the floats it writes
/// past its out_w land on rows copied after it, and exactly otherwise, so
/// nothing past the output is ever written.
///
/// The input-gradient kernel holds, for one input pixel, one accumulator
/// per (input channel, image) and walks only the pixel's valid (output
/// channel, output pixel) pairs, those whose window covers it: output
/// channel ascending, then output pixel ascending. That is the order in
/// which the reference scatter loops reach the element, one tap per output
/// pixel. Each accumulator starts at +0, as the reference's zero-filled
/// gradient does.
///
/// The two convolution gradient kernels add terms the reference loops do
/// not: the reference skips output-gradient entries equal to zero, and the
/// padding lanes of the kernels carry zeros. Every such extra term is a
/// product with an exact zero: +0 or -0 for finite operands. Adding ±0 to a
/// nonzero value leaves it unchanged, and adding ±0 to +0 gives +0. A
/// running sum that starts at +0 never becomes -0 under round-to-nearest
/// (x + y is -0 only when both are -0). So any sum that does not start at
/// -0 ends on the same bits with or without the extra zero terms. The
/// input-gradient accumulators therefore start at +0, and parameter
/// gradients start from `Model::zero_grad`'s +0 or from sums built on it.
/// The same argument is why the input-gradient kernel may drop the terms a
/// zero-padded plane would add at invalid taps: each would be a product
/// with an exact zero, and none can move a sum that starts at +0.
///
/// The weight-gradient kernel keeps one register tile of (taps x output
/// channels) live across the whole minibatch. Each element of the tile is
/// still one running sum over (image, output pixel) in ascending order —
/// the reference's image loop is outermost, so walking the batch inside
/// the tile visits that element's terms in exactly the reference order.
/// Only the interleaving *between* elements changes, which no element's
/// sum can observe. The bias gradient is one more such sum per channel,
/// walked inside the first tile of its block of output channels.

#include <cstddef>
#include <vector>

namespace fmore::ml {

/// C[i*c_row + j] += sum_{k} A[i*a_row + k*a_col] * B[k*b_row + j]
/// for i in [0,m), j in [0,n), k in [0,kk).
///
/// B and C are indexed with unit stride in j (the vectorized dimension);
/// A may be any strided layout (a_col = leading-dimension stride expresses
/// a transposed A without materializing it). Accumulation per element is a
/// single running sum over ascending k seeded from the existing C value —
/// the bit-exact order of a textbook `acc += a*b` loop.
void gemm_acc(std::size_t m, std::size_t n, std::size_t kk,
              const float* a, std::ptrdiff_t a_row, std::ptrdiff_t a_col,
              const float* b, std::ptrdiff_t b_row,
              float* c, std::ptrdiff_t c_row);

/// Geometry of one 2-D convolution of one image: stride 1, no padding
/// ("valid"), the only geometry `Conv2d` and the kernels below implement.
/// Every kernel throws std::invalid_argument on an empty kernel or an input
/// smaller than the kernel.
struct ConvShape {
    std::size_t in_c = 1;
    std::size_t h = 0, w = 0;      ///< input spatial dims
    std::size_t kh = 0, kw = 0;    ///< kernel dims

    [[nodiscard]] std::size_t out_h() const { return h - kh + 1; }
    [[nodiscard]] std::size_t out_w() const { return w - kw + 1; }
    /// Weights per output channel: in_c * kh * kw.
    [[nodiscard]] std::size_t taps() const { return in_c * kh * kw; }
    /// Output pixels per channel: out_h * out_w.
    [[nodiscard]] std::size_t out_pixels() const { return out_h() * out_w(); }
};

/// Convolution forward for a minibatch: x[batch][in_c][h][w],
/// weight[out_c][in_c][kh][kw] and bias[out_c] give
/// y[batch][out_c][oh][ow], which is overwritten. The weights and bias are
/// re-laid out into `scratch` once per call, per block of output channels
/// as [ic][ky][kx][channel], then the block's biases. From 16 output
/// channels up a block is 16 lanes, zero past out_c, x is read in place and
/// a register tile holds up to 8 output pixels x one block. Below 16 a
/// block is up to 8 channels, and `scratch` also holds one image's staged
/// input planes and one block's grid rows: a register tile holds 16 grid
/// positions x one block (see the contract above). Either follows the
/// reference order: bias, then per input channel a +0-seeded partial over
/// the taps ascending. `scratch` is resized as needed.
void conv2d_forward(const float* x, const float* weight, const float* bias,
                    std::size_t out_c, const ConvShape& s, std::size_t batch,
                    std::vector<float>& scratch, float* y);

/// Convolution input gradient for a minibatch: gy[batch][out_c][oh][ow]
/// and weight[out_c][in_c][kh][kw] give gx[batch][in_c][h][w], which is
/// overwritten. Each group of up to 16 images is copied into `scratch` as
/// [oc][output pixel][image], zero past the batch, so one output
/// gradient is one vector across the group. For each input pixel a
/// register tile of (up to 8 input channels x 16 images) starts at +0 and
/// walks only the valid (output channel, output pixel) pairs, channel
/// ascending, then output pixel ascending — the reference scatter order.
/// `scratch` is resized as needed.
void conv2d_input_grad(const float* gy, const float* weight, std::size_t out_c,
                       const ConvShape& s, std::size_t batch,
                       std::vector<float>& scratch, float* gx);

/// Convolution parameter gradients for a minibatch, accumulated into
/// weight_grad[out_c][in_c][kh][kw] and bias_grad[out_c]: for every
/// element, a running sum seeded from its current value over (image,
/// output pixel) ascending, the reference loops' order. gy is transposed
/// once into `scratch` (pixel-major, output channels unit stride) and x is
/// read in place. The bias sums ride the first tile of each block of
/// output channels. `scratch` is resized as needed.
void conv2d_weight_grad(const float* x, const float* gy, std::size_t out_c,
                        const ConvShape& s, std::size_t batch,
                        std::vector<float>& scratch, float* weight_grad,
                        float* bias_grad);

} // namespace fmore::ml
