#pragma once

/// @file equilibrium.hpp
/// The expected-utility Nash equilibrium of the first-score sealed-bid
/// auction (paper Theorem 1, built on Che 1993): EquilibriumSolver
/// tabulates the symmetric strategy t^ne(theta) = (q^s, p^s) that every
/// rational edge node follows; EquilibriumStrategy is the queryable result.

#include <cstdint>
#include <memory>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/types.hpp"
#include "fmore/auction/win_probability.hpp"
#include "fmore/numeric/interpolation.hpp"
#include "fmore/stats/distributions.hpp"

namespace fmore::auction {

/// How the equilibrium payment p^s(theta) is computed from the tabulated
/// win-probability curve g(u).
///
/// * `integral`  — the closed form of the paper's Theorem 1:
///       p = c(q^s, theta) + (integral_{u_min}^{u} g(x) dx) / g(u)
///   evaluated with cumulative trapezoid quadrature. Robust everywhere,
///   used as the reference.
/// * `euler_ode` — the paper's prescription (Eqs. 12-14): explicit Euler on
///   the markup ODE m'(u) = 1 - m(u) g'(u)/g(u), m(u_min) = 0. The ODE is
///   stiff in the boundary layer near u_min where g -> 0 (g'/g diverges), so
///   the integrator seeds m from the integral form at the first grid point
///   where the explicit step is stable and integrates upward from there.
/// * `rk4_ode`   — same ODE with classic Runge-Kutta 4, also named by the
///   paper ("the Runge-Kutte method"); ablation material.
enum class PaymentMethod : std::uint8_t {
    integral,
    euler_ode,
    rk4_ode,
};

/// Tuning knobs for the solver.
struct EquilibriumConfig {
    std::size_t num_bidders = 100;  ///< N — total competing edge nodes
    std::size_t num_winners = 20;   ///< K — winner-set size (K < N)
    WinModel win_model = WinModel::paper;
    std::size_t theta_grid_points = 129;  ///< tabulation grid over [theta_lo, theta_hi]
    std::size_t score_grid_points = 512;  ///< u-grid for g(u) quadrature / ODE
    std::size_t quality_grid_points = 48; ///< per-dim grid for argmax s(q)-c(q,theta)
};

/// The solved Nash-equilibrium bidding strategy t^ne(theta) = (q^s, p^s)
/// shared by all (i.i.d.) bidders — the object an edge node queries before
/// submitting its sealed bid.
///
/// All curves are tabulated on the solver's theta grid and linearly
/// interpolated; queries outside [theta_lo, theta_hi] clamp.
class EquilibriumStrategy {
public:
    /// q^s(theta) = argmax_q s(q) - c(q, theta)   (Che Theorem 1 / Eq. 7).
    [[nodiscard]] QualityVector quality(double theta) const;

    /// u0(theta) = s(q^s) - c(q^s, theta): the maximum achievable score
    /// ("surplus") of a type-theta bidder. Decreasing in theta.
    [[nodiscard]] double max_surplus(double theta) const;

    /// Equilibrium payment p^s(theta) (paper Eq. 8) under `method`.
    [[nodiscard]] double payment(double theta,
                                 PaymentMethod method = PaymentMethod::integral) const;

    /// The sealed bid a type-theta node submits.
    [[nodiscard]] Bid bid(NodeId node, double theta,
                          PaymentMethod method = PaymentMethod::integral) const;

    /// Expected profit pi(theta) = (p - c) * g(u0) = integral_{u_min}^{u0} g.
    /// Theorems 2 and 3 describe its monotonicity in N and K.
    [[nodiscard]] double expected_profit(double theta) const;

    /// Win probability g(u0(theta)) of a type-theta bidder.
    [[nodiscard]] double win_probability_at(double theta) const;

    /// CDF H(x) of an opponent's maximum score (H(x) = 1 - F(u0^{-1}(x))).
    [[nodiscard]] double score_cdf(double u) const;

    /// Equilibrium markup (p - c) at an arbitrary achievable score u; lets a
    /// resource-capped node price a constrained bid: the shading rule b(u)
    /// depends only on the achieved score, not on how it was achieved.
    [[nodiscard]] double markup_at_score(double u,
                                         PaymentMethod method = PaymentMethod::integral) const;

    /// Payment for an arbitrary (possibly capped) quality choice:
    /// p = c(q, theta) + markup(s(q) - c(q, theta)).
    [[nodiscard]] double payment_for(const QualityVector& q, double theta,
                                     PaymentMethod method = PaymentMethod::integral) const;

    /// Allocation-free bid computation for the flat `BidFrame` pipeline:
    /// write q^s(theta) into `out` (dimensions() doubles). Bit-identical to
    /// `quality`.
    void quality_into(double theta, double* out) const;

    /// One sealed quote: the equilibrium payment plus the s(q) evaluated on
    /// the way (each bit-identical to the individual calls). The fused
    /// collector prices the bid AND scores it from one pass over q.
    struct SealedQuote {
        double payment = 0.0;
        double quality_score = 0.0;
    };
    [[nodiscard]] SealedQuote quote_span(const double* q, std::size_t n, double theta,
                                         PaymentMethod method
                                         = PaymentMethod::integral) const;

    /// ## Row kernels
    ///
    /// `quality_rows`, `cost_score_rows` and `markup_rows` are the row
    /// twins of `quality_into` and `quote_span`: they compute a block of
    /// bids at once, so the per-row divisions (one lerp weight on the theta
    /// grid, one per scoring normalizer, the markup lerp) run as vector
    /// instructions and the scoring rule and cost model are each called
    /// once per block instead of once per row. `mec::collect_bid_rows`
    /// quotes in blocks of `numeric::kRowBlock` rows through them. The
    /// quote is split at the ask: `cost_score_rows` gives c(q, theta) and
    /// s(q), `markup_rows` adds the markup to c, so a caller that only
    /// keeps the best bids can first bound each bid's score by its at-cost
    /// score s - c and skip the markup where no bid could enter.
    ///
    /// Contract: bit-identical to the per-row calls, for any block size.
    /// Vectorization runs only ACROSS rows. Each row's arithmetic is the
    /// scalar sequence of the per-row call, in the same order: the same
    /// segment, the same lerp, factors and sum terms in dimension order.
    /// The build pins `-ffp-contract=off`, so every multiply and add stays
    /// a separate rounding whichever loop the compiler vectorized. The row
    /// hooks underneath keep the same contract:
    /// `numeric::LinearInterpolator::weight_rows` / `lerp_rows`, and the
    /// virtual `ScoringRule::quality_score_rows` / `CostModel::cost_rows`,
    /// whose base versions loop over the span calls so custom rules and
    /// models need no change. Segment lookups are exact, the
    /// `upper_bound` segment, clamped ends included.
    ///
    /// Blocks are column-major: dimension d of row r sits at q[d * n + r].

    /// Row twin of `quality_into`: q[d * n + r] = q^s(theta[r])_d. A
    /// dimension whose curve is flat (every knot the same finite, nonzero
    /// bits; the solver decides it once) writes that value without a
    /// lookup: a lerp between equal knots returns the knot, and a NaN theta
    /// still gives NaN.
    void quality_rows(const double* theta, std::size_t n, double* q) const;

    /// The first half of `quote_span` over `n` rows of `dimensions()`
    /// columns: cost[r] = c(q_r, theta[r]) and quality_score[r] = s(q_r),
    /// each bit-identical to the span calls.
    void cost_score_rows(const double* q, std::size_t n, const double* theta,
                         double* cost, double* quality_score) const;

    /// The second half: `payment` holds `cost_score_rows`' cost on entry
    /// and row r's ask on return, c + markup(s - c), equal to quote_span's
    /// payment bit for bit.
    void markup_rows(const double* quality_score, std::size_t n, PaymentMethod method,
                     double* payment) const;

    /// True when no ask under `method` undercuts its cost: every markup
    /// knot is >= 0 (a NaN knot fails), so fl(c + markup) >= c for every
    /// row, and a bid's aggregator score s - p never exceeds its at-cost
    /// score s - c. The solver's markups are such by construction (the
    /// integral one is a ratio of non-negative terms, the ODE ones are
    /// clamped at 0); a degenerate strategy asks c + 0.
    [[nodiscard]] bool ask_covers_cost(PaymentMethod method) const;

    /// The scoring rule this strategy was solved against (never null for a
    /// solver-produced strategy). Callers that maintain their own broadcast
    /// rule can check identity before reusing quote_span's s(q) as the
    /// aggregator score.
    [[nodiscard]] const ScoringRule* scoring_rule() const { return scoring_; }

    [[nodiscard]] double theta_lo() const { return theta_lo_; }
    [[nodiscard]] double theta_hi() const { return theta_hi_; }
    [[nodiscard]] double score_lo() const { return u_min_; }
    [[nodiscard]] double score_hi() const { return u_max_; }
    [[nodiscard]] std::size_t num_bidders() const { return num_bidders_; }
    [[nodiscard]] std::size_t num_winners() const { return num_winners_; }
    [[nodiscard]] std::size_t dimensions() const { return quality_curves_.size(); }

private:
    friend class EquilibriumSolver;
    EquilibriumStrategy() = default;

    [[nodiscard]] const numeric::LinearInterpolator&
    markup_curve(PaymentMethod method) const;

    const ScoringRule* scoring_ = nullptr;
    const CostModel* cost_ = nullptr;
    double theta_lo_ = 0.0;
    double theta_hi_ = 0.0;
    double u_min_ = 0.0;
    double u_max_ = 0.0;
    std::size_t num_bidders_ = 0;
    std::size_t num_winners_ = 0;
    bool degenerate_ = false; // all types share one score; zero markup
    // theta-indexed tables
    std::vector<std::unique_ptr<numeric::LinearInterpolator>> quality_curves_;
    /// Per dimension, the quality curve's value when it is flat (every knot
    /// the same finite, nonzero bits), else 0: `quality_rows` writes it.
    std::vector<double> flat_quality_;
    std::unique_ptr<numeric::LinearInterpolator> surplus_curve_;   // theta -> u0
    std::unique_ptr<numeric::LinearInterpolator> score_cdf_curve_; // u -> H(u)
    // u-indexed tables
    std::unique_ptr<numeric::LinearInterpolator> win_prob_curve_;       // u -> g
    std::unique_ptr<numeric::LinearInterpolator> profit_curve_;         // u -> I=∫g
    std::unique_ptr<numeric::LinearInterpolator> markup_integral_;      // u -> I/g
    std::unique_ptr<numeric::LinearInterpolator> markup_euler_;
    std::unique_ptr<numeric::LinearInterpolator> markup_rk4_;
};

/// Computes the symmetric Nash equilibrium of the first-score sealed-bid
/// multi-dimensional procurement auction with K winners (paper Theorem 1,
/// built on Che 1993). The references passed in must outlive the solver and
/// any strategy it produces.
class EquilibriumSolver {
public:
    /// @param scoring    the broadcast scoring rule s(q)
    /// @param cost       the bidders' common cost model c(q, theta)
    /// @param theta_dist distribution F of the private type theta
    /// @param q_lo       per-dimension lower bounds of feasible quality
    /// @param q_hi       per-dimension upper bounds (same length as q_lo)
    /// @param config     grid sizes, N, K and the win-probability model
    EquilibriumSolver(const ScoringRule& scoring, const CostModel& cost,
                      const stats::Distribution& theta_dist, QualityVector q_lo,
                      QualityVector q_hi, EquilibriumConfig config);

    /// Tabulate the full strategy. O(theta_grid * quality_grid * dims)
    /// for the quality step plus O(score_grid) for payments — the linear
    /// time the paper claims for a bidder.
    [[nodiscard]] EquilibriumStrategy solve() const;

    /// Che's Theorem 2 closed form for K = 1 (validation):
    /// p = c + int_theta^theta_hi c_theta(q^s(t), t) [(1-F(t))/(1-F(theta))]^{N-1} dt
    [[nodiscard]] double payment_che_closed_form(double theta, std::size_t exponent) const;

    [[nodiscard]] const EquilibriumConfig& config() const { return config_; }

private:
    struct QualityTable {
        std::vector<double> thetas;
        std::vector<QualityVector> qualities;
        std::vector<double> surpluses; // u0, made non-increasing
    };
    [[nodiscard]] QualityTable tabulate_qualities() const;
    [[nodiscard]] QualityVector best_quality(double theta) const;

    const ScoringRule& scoring_;
    const CostModel& cost_;
    const stats::Distribution& theta_dist_;
    QualityVector q_lo_;
    QualityVector q_hi_;
    EquilibriumConfig config_;
};

} // namespace fmore::auction
