#include "fmore/ml/lstm.hpp"

#include <cmath>
#include <stdexcept>

#include "fmore/ml/gemm.hpp"

namespace fmore::ml {

namespace {

inline float sigmoid(float x) { return 1.0F / (1.0F + std::exp(-x)); }

} // namespace

Lstm::Lstm(std::size_t input_dim, std::size_t hidden_dim)
    : input_(input_dim),
      hidden_(hidden_dim),
      w_(4 * hidden_dim * input_dim, 0.0F),
      u_(4 * hidden_dim * hidden_dim, 0.0F),
      b_(4 * hidden_dim, 0.0F),
      w_grad_(w_.size(), 0.0F),
      u_grad_(u_.size(), 0.0F),
      b_grad_(b_.size(), 0.0F) {
    if (input_ == 0 || hidden_ == 0) throw std::invalid_argument("Lstm: zero-sized");
}

void Lstm::initialize(stats::Rng& rng) {
    const double wb = std::sqrt(6.0 / static_cast<double>(input_ + hidden_));
    const double ub = std::sqrt(6.0 / static_cast<double>(2 * hidden_));
    for (float& x : w_) x = static_cast<float>(rng.uniform(-wb, wb));
    for (float& x : u_) x = static_cast<float>(rng.uniform(-ub, ub));
    // Forget-gate bias at 1: the standard trick so early training does not
    // wash out the cell state.
    for (std::size_t i = 0; i < b_.size(); ++i) {
        b_[i] = (i >= hidden_ && i < 2 * hidden_) ? 1.0F : 0.0F;
    }
}

void Lstm::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
    if (input.rank() != 3 || input.dim(2) != input_)
        throw std::invalid_argument("Lstm::forward: expected [B, T, E] input");
    const std::size_t batch = input.dim(0);
    const std::size_t seq = input.dim(1);
    cached_input_ = input;
    cached_batch_ = batch;
    cached_seq_ = seq;

    const std::size_t h4 = 4 * hidden_;
    gates_.assign(seq * batch * h4, 0.0F);
    cells_.assign((seq + 1) * batch * hidden_, 0.0F);
    hiddens_.assign((seq + 1) * batch * hidden_, 0.0F);

    // Gate matmuls run once per timestep over the whole batch; the
    // transposes put the 4H gate dimension unit-stride for the kernel.
    wt_.resize(input_ * h4);
    for (std::size_t r = 0; r < h4; ++r) {
        const float* wrow = w_.data() + r * input_;
        for (std::size_t e = 0; e < input_; ++e) wt_[e * h4 + r] = wrow[e];
    }
    ut_.resize(hidden_ * h4);
    for (std::size_t r = 0; r < h4; ++r) {
        const float* urow = u_.data() + r * hidden_;
        for (std::size_t hh = 0; hh < hidden_; ++hh) ut_[hh * h4 + r] = urow[hh];
    }

    const float* x = input.data();
    for (std::size_t t = 0; t < seq; ++t) {
        const float* h_prev = hiddens_.data() + t * batch * hidden_;
        const float* c_prev = cells_.data() + t * batch * hidden_;
        float* h_next = hiddens_.data() + (t + 1) * batch * hidden_;
        float* c_next = cells_.data() + (t + 1) * batch * hidden_;
        float* gate_t = gates_.data() + t * batch * h4;

        // z = b + x_t W^T + h_{t-1} U^T, accumulated in exactly the
        // reference order (bias seed, then W terms, then U terms).
        for (std::size_t bi = 0; bi < batch; ++bi) {
            float* z = gate_t + bi * h4;
            for (std::size_t r = 0; r < h4; ++r) z[r] = b_[r];
        }
        gemm_acc(batch, h4, input_,
                 x + t * input_, static_cast<std::ptrdiff_t>(seq * input_), 1,
                 wt_.data(), static_cast<std::ptrdiff_t>(h4),
                 gate_t, static_cast<std::ptrdiff_t>(h4));
        gemm_acc(batch, h4, hidden_,
                 h_prev, static_cast<std::ptrdiff_t>(hidden_), 1,
                 ut_.data(), static_cast<std::ptrdiff_t>(h4),
                 gate_t, static_cast<std::ptrdiff_t>(h4));

        for (std::size_t bi = 0; bi < batch; ++bi) {
            const float* cp = c_prev + bi * hidden_;
            float* z = gate_t + bi * h4;
            float* hn = h_next + bi * hidden_;
            float* cn = c_next + bi * hidden_;
            for (std::size_t hh = 0; hh < hidden_; ++hh) {
                const float ig = sigmoid(z[hh]);
                const float fg = sigmoid(z[hidden_ + hh]);
                const float gg = std::tanh(z[2 * hidden_ + hh]);
                const float og = sigmoid(z[3 * hidden_ + hh]);
                // Store post-activation values for backward.
                z[hh] = ig;
                z[hidden_ + hh] = fg;
                z[2 * hidden_ + hh] = gg;
                z[3 * hidden_ + hh] = og;
                cn[hh] = fg * cp[hh] + ig * gg;
                hn[hh] = og * std::tanh(cn[hh]);
            }
        }
    }

    out.reshape_to({batch, hidden_});
    const float* h_last = hiddens_.data() + seq * batch * hidden_;
    for (std::size_t i = 0; i < batch * hidden_; ++i) out[i] = h_last[i];
}

void Lstm::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    const std::size_t batch = cached_batch_;
    const std::size_t seq = cached_seq_;
    const std::size_t h4 = 4 * hidden_;
    if (grad_output.size() != batch * hidden_)
        throw std::invalid_argument("Lstm::backward: grad shape mismatch");

    // The input-gradient GEMM accumulates into gx: start from +0.
    grad_input.reshape_to({batch, seq, input_});
    grad_input.fill(0.0F);
    dh_.assign(grad_output.data(), grad_output.data() + batch * hidden_);
    dc_.assign(batch * hidden_, 0.0F);
    dz_all_.assign(batch * h4, 0.0F);

    const float* x = cached_input_.data();
    float* gx = grad_input.data();

    for (std::size_t t = seq; t-- > 0;) {
        const float* gate_t = gates_.data() + t * batch * h4;
        const float* c_prev = cells_.data() + t * batch * hidden_;
        const float* c_next = cells_.data() + (t + 1) * batch * hidden_;
        const float* h_prev = hiddens_.data() + t * batch * hidden_;

        // Stage 1 — elementwise: pre-activation gradients dz for every
        // batch row (and the cell gradient handed to t-1).
        for (std::size_t bi = 0; bi < batch; ++bi) {
            const float* z = gate_t + bi * h4;
            const float* cp = c_prev + bi * hidden_;
            const float* cn = c_next + bi * hidden_;
            float* dhb = dh_.data() + bi * hidden_;
            float* dcb = dc_.data() + bi * hidden_;
            float* dzb = dz_all_.data() + bi * h4;
            for (std::size_t hh = 0; hh < hidden_; ++hh) {
                const float ig = z[hh];
                const float fg = z[hidden_ + hh];
                const float gg = z[2 * hidden_ + hh];
                const float og = z[3 * hidden_ + hh];
                const float tanh_c = std::tanh(cn[hh]);
                const float dh_t = dhb[hh];
                const float dc_t = dcb[hh] + dh_t * og * (1.0F - tanh_c * tanh_c);
                dzb[hh] = dc_t * gg * ig * (1.0F - ig);
                dzb[hidden_ + hh] = dc_t * cp[hh] * fg * (1.0F - fg);
                dzb[2 * hidden_ + hh] = dc_t * ig * (1.0F - gg * gg);
                dzb[3 * hidden_ + hh] = dh_t * tanh_c * og * (1.0F - og);
                dcb[hh] = dc_t * fg;
            }
        }
        // Stage 2 — parameter gradients and propagated gradients, all
        // GEMMs over the batch (see gemm.hpp for the order contract).
        for (std::size_t bi = 0; bi < batch; ++bi) {
            const float* dzb = dz_all_.data() + bi * h4;
            for (std::size_t r = 0; r < h4; ++r) b_grad_[r] += dzb[r];
        }
        // dW[r][e] += sum_bi dz[bi][r] * x_t[bi][e]
        gemm_acc(h4, input_, batch,
                 dz_all_.data(), 1, static_cast<std::ptrdiff_t>(h4),
                 x + t * input_, static_cast<std::ptrdiff_t>(seq * input_),
                 w_grad_.data(), static_cast<std::ptrdiff_t>(input_));
        // dU[r][h] += sum_bi dz[bi][r] * h_prev[bi][h]
        gemm_acc(h4, hidden_, batch,
                 dz_all_.data(), 1, static_cast<std::ptrdiff_t>(h4),
                 h_prev, static_cast<std::ptrdiff_t>(hidden_),
                 u_grad_.data(), static_cast<std::ptrdiff_t>(hidden_));
        // dx_t = dz W (zero-seeded: grad_input starts zeroed)
        gemm_acc(batch, input_, h4,
                 dz_all_.data(), static_cast<std::ptrdiff_t>(h4), 1,
                 w_.data(), static_cast<std::ptrdiff_t>(input_),
                 gx + t * input_, static_cast<std::ptrdiff_t>(seq * input_));
        // dh_{t-1} = dz U, accumulated fresh
        for (std::size_t i = 0; i < batch * hidden_; ++i) dh_[i] = 0.0F;
        gemm_acc(batch, hidden_, h4,
                 dz_all_.data(), static_cast<std::ptrdiff_t>(h4), 1,
                 u_.data(), static_cast<std::ptrdiff_t>(hidden_),
                 dh_.data(), static_cast<std::ptrdiff_t>(hidden_));
    }
}

std::vector<ParamBlock> Lstm::parameters() {
    return {{&w_, &w_grad_}, {&u_, &u_grad_}, {&b_, &b_grad_}};
}

} // namespace fmore::ml
