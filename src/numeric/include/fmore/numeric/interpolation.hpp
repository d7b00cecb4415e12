#pragma once

#include <cstddef>
#include <cstdint>
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
    /// `eval_segment`. For x_min() < x < x_max(), returns hi with
    /// xs[hi-1] <= x < xs[hi] — exactly what operator() uses internally,
    /// so eval_segment(segment_for(x), x) == operator()(x) bit-for-bit. A
    /// NaN, which operator() passes on, gets a segment in range, and its
    /// lerp is NaN.
    [[nodiscard]] std::size_t segment_for(double x) const;
    [[nodiscard]] double eval_segment(std::size_t hi, double x) const {
        const std::size_t lo = hi - 1;
        const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
        return ys_[lo] + t * (ys_[hi] - ys_[lo]);
    }

    /// Row twins of the two calls above, for the row kernels of the bid
    /// pipeline (contract: equilibrium.hpp, "Row kernels"). `weight_rows`
    /// writes, for every x[r] strictly inside (x_min(), x_max()),
    /// hi[r] = segment_for(x[r]) and t[r] = eval_segment's lerp weight
    /// (x[r] - xs[hi-1]) / (xs[hi] - xs[hi-1]); rows at or beyond an end get
    /// some segment in range and its weight, and NaN rows a NaN weight.
    /// `lerp_rows` then writes y[r] == operator()(x[r]) bit for bit: it
    /// runs eval_segment's lerp with that weight on every row and selects
    /// the end value on rows at or beyond either end. The weight depends
    /// only on the knots, so one `weight_rows` serves every member of a
    /// family on one shared grid.
    ///
    /// On a uniform grid the lookup is a vector loop: a 32-bit index guess,
    /// two knot gathers and the exact check xs[hi-1] <= x < xs[hi]; only a
    /// row whose guess misses takes `segment_for`'s scalar walk. Elsewhere
    /// every row takes the binary search.
    void weight_rows(const double* x, std::size_t n, std::int32_t* hi, double* t) const;
    void lerp_rows(const std::int32_t* hi, const double* t, const double* x, std::size_t n,
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
