#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace fmore::stats {

/// Min-max normalization to [0, 1].
///
/// The paper's walk-through example (Section III.B) normalizes qualities and
/// payments "by the technique of min-max normalization to compute the
/// scores". The aggregator fits a normalizer per resource dimension over the
/// advertised range (or the observed bids) and applies it inside the scoring
/// rule.
class MinMaxNormalizer {
public:
    /// Identity normalizer (range [0,1] passes through).
    MinMaxNormalizer() : lo_(0.0), hi_(1.0), inverse_span_(1.0) {}

    /// Normalizer for a known range [lo, hi]; throws if lo >= hi.
    MinMaxNormalizer(double lo, double hi);

    /// Fit from observed values; throws on fewer than 2 distinct values.
    static MinMaxNormalizer fit(const std::vector<double>& values);

    /// Map x into [0,1], clamping outside the fitted range. Inline so the
    /// scoring rules' row kernels vectorize through it.
    [[nodiscard]] double transform(double x) const {
        const double y = (x - lo_) / (hi_ - lo_);
        return std::clamp(y, 0.0, 1.0);
    }

    /// `transform` of x[0, n): calls use(r, transform(x[r])) for each r in
    /// order, bit for bit, without the arithmetic that changes no bit.
    /// When lo is +0 it skips the subtraction: x - (+0) is x for every x,
    /// -0 and NaN included (x - (-0) is not: -0 - (-0) is +0). When
    /// hi - lo is a power of two whose reciprocal is a double, it
    /// multiplies by that reciprocal instead of dividing: x / 2^k and
    /// x * 2^-k round the same real number. A [0, 1] normalizer therefore
    /// neither subtracts nor divides. Inline, with the range in locals, so
    /// a row kernel's loop through `use` vectorizes.
    template <class Use>
    void transform_rows(const double* x, std::size_t n, Use&& use) const {
        const double lo = lo_;
        const double span = hi_ - lo_;
        const double inverse = inverse_span_;
        const bool shift = lo != 0.0 || std::signbit(lo);
        if (inverse != 0.0 && shift) {
            for (std::size_t r = 0; r < n; ++r)
                use(r, std::clamp((x[r] - lo) * inverse, 0.0, 1.0));
        } else if (inverse != 0.0) {
            for (std::size_t r = 0; r < n; ++r) use(r, std::clamp(x[r] * inverse, 0.0, 1.0));
        } else if (shift) {
            for (std::size_t r = 0; r < n; ++r) use(r, std::clamp((x[r] - lo) / span, 0.0, 1.0));
        } else {
            for (std::size_t r = 0; r < n; ++r) use(r, std::clamp(x[r] / span, 0.0, 1.0));
        }
    }

    /// Map a normalized value back into the original range.
    [[nodiscard]] double inverse(double y) const;

    [[nodiscard]] double lo() const { return lo_; }
    [[nodiscard]] double hi() const { return hi_; }

private:
    double lo_;
    double hi_;
    /// 1 / (hi - lo) when hi - lo is a power of two whose reciprocal is a
    /// double, else 0 (`transform_rows` then divides).
    double inverse_span_;
};

} // namespace fmore::stats
