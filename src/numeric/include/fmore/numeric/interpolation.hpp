#pragma once

#include <cstddef>
#include <vector>

namespace fmore::numeric {

/// Rows per block of the bid pipeline's row kernels: the block size
/// `mec::collect_bid_rows` quotes in, and the tile in which
/// `auction::EquilibriumStrategy`'s row hooks keep their stack scratch.
inline constexpr std::size_t kRowBlock = 256;

/// Piecewise-linear interpolant over strictly increasing knots.
///
/// The equilibrium solver tabulates the type-to-score map u0(theta) on a
/// grid and needs both u0 and its inverse as functions; this class provides
/// the forward map, and a second instance built on swapped (monotone)
/// samples provides the inverse.
///
/// Evaluation is O(1) on (near-)uniform knot grids — the solver's theta and
/// u tabulations — via an index guess plus an exact fix-up that lands on
/// the same segment `std::upper_bound` would pick, so results are
/// bit-identical to the binary-search path. Million-bid rounds evaluate
/// these curves a few times per node, which is why the lookup matters.
class LinearInterpolator {
public:
    /// xs must be strictly increasing and the same length as ys (>= 2).
    LinearInterpolator(std::vector<double> xs, std::vector<double> ys);

    /// Evaluate at x, clamping to the end values outside the knot range.
    [[nodiscard]] double operator()(double x) const;

    [[nodiscard]] double x_min() const { return xs_.front(); }
    [[nodiscard]] double x_max() const { return xs_.back(); }
    [[nodiscard]] const std::vector<double>& xs() const { return xs_; }
    [[nodiscard]] const std::vector<double>& ys() const { return ys_; }

    /// Build the inverse interpolant of a strictly monotone function given
    /// as (xs, ys) samples; works for increasing or decreasing ys.
    static LinearInterpolator inverse_of(const std::vector<double>& xs,
                                         const std::vector<double>& ys);

    /// Segment lookup for families of interpolants tabulated on ONE shared
    /// knot grid (the equilibrium solver's per-dimension quality curves):
    /// find the segment once on any member, evaluate every member with
    /// `eval_segment`. Requires x_min() < x < x_max(); returns hi with
    /// xs[hi-1] <= x < xs[hi] — exactly what operator() uses internally,
    /// so eval_segment(segment_for(x), x) == operator()(x) bit-for-bit.
    [[nodiscard]] std::size_t segment_for(double x) const;
    [[nodiscard]] double eval_segment(std::size_t hi, double x) const {
        const std::size_t lo = hi - 1;
        const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
        return ys_[lo] + t * (ys_[hi] - ys_[lo]);
    }

    /// Row twins of the two calls above, for the row kernels of the bid
    /// pipeline (contract: equilibrium.hpp, "Row kernels"). `segment_rows`
    /// writes hi[r] = segment_for(x[r]) for every x[r] strictly inside
    /// (x_min(), x_max()), and 1 for a row at or beyond either end.
    /// `eval_rows` then writes y[r] == operator()(x[r]) bit for bit: the
    /// lerp runs on every row, exactly `eval_segment`'s arithmetic, and a
    /// select puts the end value on rows at or beyond an end. The lookup
    /// stays a scalar loop (its fix-up walk branches); the lerp, with its
    /// division, is the part that vectorizes.
    void segment_rows(const double* x, std::size_t n, std::size_t* hi) const;
    void eval_rows(const std::size_t* hi, const double* x, std::size_t n,
                   double* y) const;

private:
    std::vector<double> xs_;
    std::vector<double> ys_;
    /// Grid step (and its reciprocal) when the knots are numerically
    /// uniform, else 0 (binary search). Only ever an index GUESS — the
    /// fix-up loop guarantees the exact upper_bound segment regardless of
    /// rounding, so the faster multiply-by-reciprocal is safe.
    double uniform_step_ = 0.0;
    double inv_uniform_step_ = 0.0;
};

} // namespace fmore::numeric
