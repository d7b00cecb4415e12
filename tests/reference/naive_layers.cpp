#include "fmore/reference/naive_layers.hpp"

#include <cmath>
#include <stdexcept>

#include "fmore/ml/activations.hpp"
#include "fmore/ml/conv2d.hpp"
#include "fmore/ml/dense.hpp"
#include "fmore/ml/dropout.hpp"
#include "fmore/ml/lstm.hpp"
#include "fmore/ml/pooling.hpp"

namespace fmore::reference {

namespace {

inline float sigmoid(float x) { return 1.0F / (1.0F + std::exp(-x)); }

} // namespace

void copy_parameters(ml::Layer& from, ml::Layer& to) {
    const std::vector<ml::ParamBlock> src = from.parameters();
    const std::vector<ml::ParamBlock> dst = to.parameters();
    if (src.size() != dst.size())
        throw std::invalid_argument("copy_parameters: parameter block count differs");
    for (std::size_t p = 0; p < src.size(); ++p) {
        if (src[p].values->size() != dst[p].values->size())
            throw std::invalid_argument("copy_parameters: parameter block size differs");
        *dst[p].values = *src[p].values;
    }
}

// ------------------------------------------------------------------ Dense

NaiveDense::NaiveDense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_(in_features * out_features, 0.0F),
      bias_(out_features, 0.0F),
      weight_grad_(in_features * out_features, 0.0F),
      bias_grad_(out_features, 0.0F) {
    if (in_ == 0 || out_ == 0) throw std::invalid_argument("NaiveDense: zero-sized layer");
}

void NaiveDense::initialize(stats::Rng& rng) {
    ml::Dense twin(in_, out_);
    twin.initialize(rng);
    copy_parameters(twin, *this);
}

void NaiveDense::forward_into(const ml::Tensor& input, ml::Tensor& out, bool /*training*/) {
    if (input.rank() < 2 || input.size() % in_ != 0)
        throw std::invalid_argument("NaiveDense::forward: input incompatible with in_features");
    const std::size_t batch = input.size() / in_;
    cached_input_ = input;
    out.reshape_to({batch, out_});
    const float* x = input.data();
    float* y = out.data();
    for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * in_;
        float* yb = y + b * out_;
        for (std::size_t o = 0; o < out_; ++o) {
            const float* wrow = weight_.data() + o * in_;
            float acc = bias_[o];
            for (std::size_t i = 0; i < in_; ++i) acc += wrow[i] * xb[i];
            yb[o] = acc;
        }
    }
}

void NaiveDense::backward_into(const ml::Tensor& grad_output, ml::Tensor& grad_input) {
    const std::size_t batch = cached_input_.size() / in_;
    if (grad_output.size() != batch * out_)
        throw std::invalid_argument("NaiveDense::backward: grad shape mismatch");
    grad_input.reshape_to(cached_input_.shape());
    grad_input.fill(0.0F);
    const float* x = cached_input_.data();
    const float* gy = grad_output.data();
    float* gx = grad_input.data();
    for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * in_;
        const float* gyb = gy + b * out_;
        float* gxb = gx + b * in_;
        for (std::size_t o = 0; o < out_; ++o) {
            const float g = gyb[o];
            bias_grad_[o] += g;
            float* wgrow = weight_grad_.data() + o * in_;
            const float* wrow = weight_.data() + o * in_;
            for (std::size_t i = 0; i < in_; ++i) {
                wgrow[i] += g * xb[i];
                gxb[i] += g * wrow[i];
            }
        }
    }
}

std::vector<ml::ParamBlock> NaiveDense::parameters() {
    return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

// ----------------------------------------------------------------- Conv2d

NaiveConv2d::NaiveConv2d(std::size_t in_channels, std::size_t out_channels,
                         std::size_t kernel)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      weight_(out_channels * in_channels * kernel * kernel, 0.0F),
      bias_(out_channels, 0.0F),
      weight_grad_(weight_.size(), 0.0F),
      bias_grad_(out_channels, 0.0F) {
    if (in_c_ == 0 || out_c_ == 0 || k_ == 0)
        throw std::invalid_argument("NaiveConv2d: zero-sized configuration");
}

void NaiveConv2d::initialize(stats::Rng& rng) {
    ml::Conv2d twin(in_c_, out_c_, k_);
    twin.initialize(rng);
    copy_parameters(twin, *this);
}

void NaiveConv2d::forward_into(const ml::Tensor& input, ml::Tensor& out, bool /*training*/) {
    if (input.rank() != 4 || input.dim(1) != in_c_)
        throw std::invalid_argument("NaiveConv2d::forward: expected [B, C, H, W] input");
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    if (h < k_ || w < k_)
        throw std::invalid_argument("NaiveConv2d::forward: input smaller than kernel");
    const std::size_t oh = h - k_ + 1;
    const std::size_t ow = w - k_ + 1;
    cached_input_ = input;
    out.reshape_to({batch, out_c_, oh, ow});
    const float* x = input.data();
    float* y = out.data();
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t oc = 0; oc < out_c_; ++oc) {
            float* ymap = y + ((b * out_c_ + oc) * oh) * ow;
            const float bias = bias_[oc];
            for (std::size_t i = 0; i < oh * ow; ++i) ymap[i] = bias;
            for (std::size_t ic = 0; ic < in_c_; ++ic) {
                const float* xmap = x + ((b * in_c_ + ic) * h) * w;
                const float* ker = weight_.data() + ((oc * in_c_ + ic) * k_) * k_;
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        float acc = 0.0F;
                        for (std::size_t ky = 0; ky < k_; ++ky) {
                            const float* xrow = xmap + (oy + ky) * w + ox;
                            const float* krow = ker + ky * k_;
                            for (std::size_t kx = 0; kx < k_; ++kx) acc += xrow[kx] * krow[kx];
                        }
                        ymap[oy * ow + ox] += acc;
                    }
                }
            }
        }
    }
}

void NaiveConv2d::backward_into(const ml::Tensor& grad_output, ml::Tensor& grad_input) {
    const std::size_t batch = cached_input_.dim(0);
    const std::size_t h = cached_input_.dim(2);
    const std::size_t w = cached_input_.dim(3);
    const std::size_t oh = h - k_ + 1;
    const std::size_t ow = w - k_ + 1;
    if (grad_output.size() != batch * out_c_ * oh * ow)
        throw std::invalid_argument("NaiveConv2d::backward: grad shape mismatch");
    grad_input.reshape_to(cached_input_.shape());
    grad_input.fill(0.0F);
    const float* x = cached_input_.data();
    const float* gy = grad_output.data();
    float* gx = grad_input.data();
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t oc = 0; oc < out_c_; ++oc) {
            const float* gymap = gy + ((b * out_c_ + oc) * oh) * ow;
            for (std::size_t i = 0; i < oh * ow; ++i) bias_grad_[oc] += gymap[i];
            for (std::size_t ic = 0; ic < in_c_; ++ic) {
                const float* xmap = x + ((b * in_c_ + ic) * h) * w;
                float* gxmap = gx + ((b * in_c_ + ic) * h) * w;
                const float* ker = weight_.data() + ((oc * in_c_ + ic) * k_) * k_;
                float* gker = weight_grad_.data() + ((oc * in_c_ + ic) * k_) * k_;
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const float g = gymap[oy * ow + ox];
                        if (g == 0.0F) continue;
                        for (std::size_t ky = 0; ky < k_; ++ky) {
                            const float* xrow = xmap + (oy + ky) * w + ox;
                            float* gxrow = gxmap + (oy + ky) * w + ox;
                            const float* krow = ker + ky * k_;
                            float* gkrow = gker + ky * k_;
                            for (std::size_t kx = 0; kx < k_; ++kx) {
                                gkrow[kx] += g * xrow[kx];
                                gxrow[kx] += g * krow[kx];
                            }
                        }
                    }
                }
            }
        }
    }
}

std::vector<ml::ParamBlock> NaiveConv2d::parameters() {
    return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

// ------------------------------------------------------------------- Lstm

NaiveLstm::NaiveLstm(std::size_t input_dim, std::size_t hidden_dim)
    : input_(input_dim),
      hidden_(hidden_dim),
      w_(4 * hidden_dim * input_dim, 0.0F),
      u_(4 * hidden_dim * hidden_dim, 0.0F),
      b_(4 * hidden_dim, 0.0F),
      w_grad_(w_.size(), 0.0F),
      u_grad_(u_.size(), 0.0F),
      b_grad_(b_.size(), 0.0F) {
    if (input_ == 0 || hidden_ == 0) throw std::invalid_argument("NaiveLstm: zero-sized");
}

void NaiveLstm::initialize(stats::Rng& rng) {
    ml::Lstm twin(input_, hidden_);
    twin.initialize(rng);
    copy_parameters(twin, *this);
}

void NaiveLstm::forward_into(const ml::Tensor& input, ml::Tensor& out, bool /*training*/) {
    if (input.rank() != 3 || input.dim(2) != input_)
        throw std::invalid_argument("NaiveLstm::forward: expected [B, T, E] input");
    const std::size_t batch = input.dim(0);
    const std::size_t seq = input.dim(1);
    cached_input_ = input;
    cached_batch_ = batch;
    cached_seq_ = seq;

    const std::size_t h4 = 4 * hidden_;
    gates_.assign(seq * batch * h4, 0.0F);
    cells_.assign((seq + 1) * batch * hidden_, 0.0F);
    hiddens_.assign((seq + 1) * batch * hidden_, 0.0F);

    const float* x = input.data();
    for (std::size_t t = 0; t < seq; ++t) {
        const float* h_prev = hiddens_.data() + t * batch * hidden_;
        const float* c_prev = cells_.data() + t * batch * hidden_;
        float* h_next = hiddens_.data() + (t + 1) * batch * hidden_;
        float* c_next = cells_.data() + (t + 1) * batch * hidden_;
        float* gate_t = gates_.data() + t * batch * h4;
        for (std::size_t bi = 0; bi < batch; ++bi) {
            const float* xt = x + (bi * seq + t) * input_;
            const float* hp = h_prev + bi * hidden_;
            const float* cp = c_prev + bi * hidden_;
            float* z = gate_t + bi * h4;
            // z = b + W x_t + U h_{t-1}, one running sum per gate row.
            for (std::size_t r = 0; r < h4; ++r) {
                float acc = b_[r];
                const float* wrow = w_.data() + r * input_;
                for (std::size_t e = 0; e < input_; ++e) acc += wrow[e] * xt[e];
                const float* urow = u_.data() + r * hidden_;
                for (std::size_t hh = 0; hh < hidden_; ++hh) acc += urow[hh] * hp[hh];
                z[r] = acc;
            }
            float* hn = h_next + bi * hidden_;
            float* cn = c_next + bi * hidden_;
            for (std::size_t hh = 0; hh < hidden_; ++hh) {
                const float ig = sigmoid(z[hh]);
                const float fg = sigmoid(z[hidden_ + hh]);
                const float gg = std::tanh(z[2 * hidden_ + hh]);
                const float og = sigmoid(z[3 * hidden_ + hh]);
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

void NaiveLstm::backward_into(const ml::Tensor& grad_output, ml::Tensor& grad_input) {
    const std::size_t batch = cached_batch_;
    const std::size_t seq = cached_seq_;
    const std::size_t h4 = 4 * hidden_;
    if (grad_output.size() != batch * hidden_)
        throw std::invalid_argument("NaiveLstm::backward: grad shape mismatch");

    grad_input.reshape_to({batch, seq, input_});
    grad_input.fill(0.0F);
    dh_.assign(grad_output.data(), grad_output.data() + batch * hidden_);
    dc_.assign(batch * hidden_, 0.0F);
    dz_.assign(h4, 0.0F);
    const float* x = cached_input_.data();
    float* gx = grad_input.data();

    for (std::size_t t = seq; t-- > 0;) {
        const float* gate_t = gates_.data() + t * batch * h4;
        const float* c_prev = cells_.data() + t * batch * hidden_;
        const float* c_next = cells_.data() + (t + 1) * batch * hidden_;
        const float* h_prev = hiddens_.data() + t * batch * hidden_;
        for (std::size_t bi = 0; bi < batch; ++bi) {
            const float* z = gate_t + bi * h4;
            const float* cp = c_prev + bi * hidden_;
            const float* cn = c_next + bi * hidden_;
            const float* hp = h_prev + bi * hidden_;
            const float* xt = x + (bi * seq + t) * input_;
            float* dhb = dh_.data() + bi * hidden_;
            float* dcb = dc_.data() + bi * hidden_;
            for (std::size_t hh = 0; hh < hidden_; ++hh) {
                const float ig = z[hh];
                const float fg = z[hidden_ + hh];
                const float gg = z[2 * hidden_ + hh];
                const float og = z[3 * hidden_ + hh];
                const float tanh_c = std::tanh(cn[hh]);
                const float dh_t = dhb[hh];
                const float dc_t = dcb[hh] + dh_t * og * (1.0F - tanh_c * tanh_c);
                dz_[hh] = dc_t * gg * ig * (1.0F - ig);
                dz_[hidden_ + hh] = dc_t * cp[hh] * fg * (1.0F - fg);
                dz_[2 * hidden_ + hh] = dc_t * ig * (1.0F - gg * gg);
                dz_[3 * hidden_ + hh] = dh_t * tanh_c * og * (1.0F - og);
                dcb[hh] = dc_t * fg;
            }
            float* gxt = gx + (bi * seq + t) * input_;
            // dh for t-1 is accumulated fresh from U^T dz.
            for (std::size_t hh = 0; hh < hidden_; ++hh) dhb[hh] = 0.0F;
            for (std::size_t r = 0; r < h4; ++r) {
                const float g = dz_[r];
                if (g == 0.0F) continue;
                b_grad_[r] += g;
                float* wgrow = w_grad_.data() + r * input_;
                const float* wrow = w_.data() + r * input_;
                for (std::size_t e = 0; e < input_; ++e) {
                    wgrow[e] += g * xt[e];
                    gxt[e] += g * wrow[e];
                }
                float* ugrow = u_grad_.data() + r * hidden_;
                const float* urow = u_.data() + r * hidden_;
                for (std::size_t hh = 0; hh < hidden_; ++hh) {
                    ugrow[hh] += g * hp[hh];
                    dhb[hh] += g * urow[hh];
                }
            }
        }
    }
}

std::vector<ml::ParamBlock> NaiveLstm::parameters() {
    return {{&w_, &w_grad_}, {&u_, &u_grad_}, {&b_, &b_grad_}};
}

// ----------------------------------------------------------------- Models

ml::Model naive_cnn(const ml::ImageSpec& spec, std::uint64_t seed) {
    ml::Model model(seed);
    model.add(std::make_unique<NaiveConv2d>(spec.channels, 8, 3));
    model.add(std::make_unique<ml::ReLU>());
    model.add(std::make_unique<ml::MaxPool2d>());
    model.add(std::make_unique<ml::Dropout>(0.25));
    model.add(std::make_unique<ml::Flatten>());
    const std::size_t oh = (spec.height - 2) / 2;
    const std::size_t ow = (spec.width - 2) / 2;
    model.add(std::make_unique<NaiveDense>(8 * oh * ow, 64));
    model.add(std::make_unique<ml::ReLU>());
    model.add(std::make_unique<ml::Dropout>(0.25));
    model.add(std::make_unique<NaiveDense>(64, spec.classes));
    return model;
}

ml::Model naive_cnn_deep(const ml::ImageSpec& spec, std::uint64_t seed) {
    ml::Model model(seed);
    model.add(std::make_unique<NaiveConv2d>(spec.channels, 8, 3));
    model.add(std::make_unique<ml::ReLU>());
    model.add(std::make_unique<ml::MaxPool2d>());
    model.add(std::make_unique<NaiveConv2d>(8, 16, 3));
    model.add(std::make_unique<ml::ReLU>());
    model.add(std::make_unique<ml::Dropout>(0.25));
    model.add(std::make_unique<ml::Flatten>());
    const std::size_t h2 = (spec.height - 2) / 2 - 2;
    const std::size_t w2 = (spec.width - 2) / 2 - 2;
    model.add(std::make_unique<NaiveDense>(16 * h2 * w2, 96));
    model.add(std::make_unique<ml::ReLU>());
    model.add(std::make_unique<ml::Dropout>(0.25));
    model.add(std::make_unique<NaiveDense>(96, spec.classes));
    return model;
}

} // namespace fmore::reference
