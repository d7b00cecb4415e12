#include "fmore/numeric/interpolation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace fmore::numeric {

LinearInterpolator::LinearInterpolator(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
    if (xs_.size() != ys_.size())
        throw std::invalid_argument("LinearInterpolator: size mismatch");
    if (xs_.size() < 2) throw std::invalid_argument("LinearInterpolator: need >= 2 knots");
    for (std::size_t i = 1; i < xs_.size(); ++i) {
        if (!(xs_[i] > xs_[i - 1]))
            throw std::invalid_argument("LinearInterpolator: xs must be strictly increasing");
    }
    // Uniform-grid detection (conservative): when every knot sits within a
    // tiny relative tolerance of the linspace prediction, segment lookup
    // can start from an O(1) index guess. The tolerance only gates the
    // OPTIMIZATION — the fix-up in operator() makes the selected segment
    // exact either way.
    const double step =
        (xs_.back() - xs_.front()) / static_cast<double>(xs_.size() - 1);
    const double tolerance =
        1e-9 * std::max(std::abs(xs_.front()), std::abs(xs_.back()));
    // The vector lookup (weight_rows) indexes knots with 32-bit integers.
    bool uniform = step > 0.0 && xs_.size() <= static_cast<std::size_t>(INT32_MAX);
    for (std::size_t i = 1; uniform && i + 1 < xs_.size(); ++i) {
        const double predicted = xs_.front() + static_cast<double>(i) * step;
        if (std::abs(xs_[i] - predicted) > tolerance) uniform = false;
    }
    if (uniform) {
        uniform_step_ = step;
        inv_uniform_step_ = 1.0 / step;
    }
}

std::size_t LinearInterpolator::segment_for(double x) const {
    const std::size_t last = xs_.size() - 1;
    std::size_t hi;
    if (uniform_step_ > 0.0) {
        // O(1) guess, then walk to the unique segment with
        // xs_[hi-1] <= x < xs_[hi] — exactly upper_bound's answer. The
        // caller's range guards bound both loops: xs_.back() > x stops the
        // ascent, xs_.front() < x stops the descent. The guess is clamped
        // to a segment before its conversion, so a NaN takes the first.
        const double cell = (x - xs_.front()) * inv_uniform_step_;
        const double last_cell = static_cast<double>(last - 1);
        hi = static_cast<std::size_t>(cell > 0.0 ? (cell < last_cell ? cell : last_cell)
                                                 : 0.0)
             + 1;
        while (xs_[hi] <= x) ++hi;
        while (xs_[hi - 1] > x) --hi;
    } else {
        // A NaN compares below no knot, so upper_bound returns the end.
        const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
        hi = std::min(static_cast<std::size_t>(it - xs_.begin()), last);
    }
    return hi;
}

double LinearInterpolator::operator()(double x) const {
    if (x <= xs_.front()) return ys_.front();
    if (x >= xs_.back()) return ys_.back();
    return eval_segment(segment_for(x), x);
}

namespace {

/// The vector loop of `weight_rows` on a uniform grid: per row a segment
/// guess, clamped to the knots before its conversion (a NaN takes the
/// first segment, +inf the last), the two knots around it, the lerp weight
/// between them and the exact check. Returns nonzero when a row strictly
/// inside (first, last) missed its guessed segment. Bitwise ops, not
/// branches, keep the loop one vector loop. Out of line on purpose:
/// inlined where xs[0] is already loaded, GCC 12 reuses that load for the
/// rows whose guess clamps to the first segment, and the masked knot loads
/// this leaves keep the loop scalar.
[[gnu::noinline]] long guess_segments(const double* __restrict x, std::size_t n,
                                      const double* __restrict xs, double first, double last,
                                      double inv_step, double last_cell,
                                      std::int32_t* __restrict hi, double* __restrict t) {
    long missed = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const double v = x[r];
        const double scaled = (v - first) * inv_step;
        const double cell = scaled > 0.0 ? (scaled < last_cell ? scaled : last_cell) : 0.0;
        const std::int32_t upper = static_cast<std::int32_t>(cell) + 1;
        const double below = xs[upper - 1];
        const double above = xs[upper];
        hi[r] = upper;
        t[r] = (v - below) / (above - below);
        missed |= (v > first) & (v < last) & ((below > v) | (v >= above));
    }
    return missed;
}

} // namespace

void LinearInterpolator::weight_rows(const double* __restrict x, std::size_t n,
                                     std::int32_t* __restrict hi,
                                     double* __restrict t) const {
    const double* xs = xs_.data();
    const double first = xs_.front();
    const double last = xs_.back();
    if (uniform_step_ == 0.0) {
        for (std::size_t r = 0; r < n; ++r) {
            const std::size_t upper = x[r] > first && x[r] < last ? segment_for(x[r]) : 1;
            hi[r] = static_cast<std::int32_t>(upper);
            t[r] = (x[r] - xs[upper - 1]) / (xs[upper] - xs[upper - 1]);
        }
        return;
    }
    if (guess_segments(x, n, xs, first, last, inv_uniform_step_,
                       static_cast<double>(xs_.size() - 2), hi, t)
        == 0)
        return;
    // The rare row whose guess missed (a knot within rounding of the
    // linspace) takes the scalar walk.
    for (std::size_t r = 0; r < n; ++r) {
        const std::int32_t upper = hi[r];
        if (!(x[r] > first && x[r] < last) || (xs[upper - 1] <= x[r] && x[r] < xs[upper]))
            continue;
        const std::size_t exact = segment_for(x[r]);
        hi[r] = static_cast<std::int32_t>(exact);
        t[r] = (x[r] - xs[exact - 1]) / (xs[exact] - xs[exact - 1]);
    }
}

void LinearInterpolator::lerp_rows(const std::int32_t* __restrict hi,
                                   const double* __restrict t, const double* __restrict x,
                                   std::size_t n, double* __restrict y) const {
    const double* ys = ys_.data();
    const double first_x = xs_.front();
    const double last_x = xs_.back();
    const double first_y = ys_.front();
    const double last_y = ys_.back();
    for (std::size_t r = 0; r < n; ++r) {
        const std::int32_t upper = hi[r];
        const double below = ys[upper - 1];
        const double inside = below + t[r] * (ys[upper] - below);
        y[r] = x[r] <= first_x ? first_y : (x[r] >= last_x ? last_y : inside);
    }
}

LinearInterpolator LinearInterpolator::inverse_of(const std::vector<double>& xs,
                                                  const std::vector<double>& ys) {
    if (xs.size() != ys.size() || xs.size() < 2)
        throw std::invalid_argument("inverse_of: bad sample arrays");
    const bool increasing = ys.back() > ys.front();
    std::vector<double> inv_x = ys;
    std::vector<double> inv_y = xs;
    if (!increasing) {
        std::reverse(inv_x.begin(), inv_x.end());
        std::reverse(inv_y.begin(), inv_y.end());
    }
    // Collapse numerically-equal neighbours so the knot sequence is strictly
    // increasing; the function must be monotone for the inverse to exist.
    std::vector<double> cx;
    std::vector<double> cy;
    cx.reserve(inv_x.size());
    cy.reserve(inv_y.size());
    for (std::size_t i = 0; i < inv_x.size(); ++i) {
        if (!cx.empty() && inv_x[i] <= cx.back()) {
            if (inv_x[i] < cx.back() - 1e-12)
                throw std::invalid_argument("inverse_of: samples are not monotone");
            continue;
        }
        cx.push_back(inv_x[i]);
        cy.push_back(inv_y[i]);
    }
    if (cx.size() < 2) throw std::invalid_argument("inverse_of: degenerate monotone range");
    return LinearInterpolator(std::move(cx), std::move(cy));
}

} // namespace fmore::numeric
