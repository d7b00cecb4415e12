#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace fmore::stats {

/// Deterministic, seedable random source used across the whole project.
///
/// All stochastic components (cost-parameter draws, resource dynamics,
/// dataset synthesis, tie-breaking coin flips, psi-FMore acceptance) take a
/// `Rng&` so experiments are reproducible from a single seed, mirroring the
/// paper's "average of five experiments" protocol where each trial gets its
/// own derived seed.
class Rng {
public:
    using engine_type = std::mt19937_64;

    explicit Rng(std::uint64_t seed = 0x5eedf00dULL) : engine_(seed) {}

    /// Uniform real in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Standard normal draw scaled to (mean, stddev).
    ///
    /// Each call builds a fresh `std::normal_distribution`, so the second
    /// value of libstdc++'s polar method is discarded, and a call takes an
    /// even number (>= 2) of engine outputs: one (x, y) pair per try until
    /// the pair lands inside the unit disc. Every recorded tape pins this,
    /// and `skip_normals` (the image set's walk) relies on it.
    double normal(double mean, double stddev);

    /// Advance the engine exactly as `count` calls of `normal` would: the
    /// polar method's accept test on each (x, y) pair, without the log and
    /// square root of the value it would return.
    void skip_normals(std::size_t count);

    /// Bernoulli trial; the paper's coin flip for score ties and the
    /// psi-FMore per-node acceptance test.
    bool bernoulli(double p_true);

    /// Fisher-Yates shuffle of an index vector.
    void shuffle(std::vector<std::size_t>& items);

    /// Sample `k` distinct indices from [0, n) without replacement.
    std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

    /// Derive an independent child generator (for per-trial / per-node
    /// streams); uses splitmix-style mixing of the next engine output.
    Rng split();

    engine_type& engine() { return engine_; }

private:
    engine_type engine_;
};

/// Counter-derived random stream (splitmix64): a few arithmetic ops per
/// draw and O(1) construction, unlike the 312-word mt19937_64 state. This
/// is what makes per-node RNG streams affordable at million-node scale —
/// `mec::PopulationStore::evolve` seeds one stream per node from
/// (round salt, node id), so any partition of the nodes over threads
/// replays exactly the same draws.
class SplitMix64 {
public:
    /// The golden-ratio increment the state advances by per draw.
    static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /// splitmix64 finalizer over an incrementing counter — the same mixing
    /// `Rng::split` uses for child streams.
    std::uint64_t next_u64() { return mix(state_ += kGamma); }

    /// Uniform real in [lo, hi) from the top 53 bits of one draw.
    double uniform(double lo, double hi) { return uniform_of(next_u64(), lo, hi); }

    /// The k-th output (k >= 1) of the stream seeded with `seed`: what the
    /// k-th `next_u64()` call on `SplitMix64(seed)` returns. After k calls
    /// the state is seed + k·kGamma (mod 2^64), so every draw is one
    /// finalize away from the seed — a row-parallel loop reads a row's
    /// draws this way instead of walking the stream draw by draw.
    static std::uint64_t nth(std::uint64_t seed, std::uint64_t k) {
        return mix(seed + k * kGamma);
    }

    /// The value `uniform(lo, hi)` returns for a draw of `bits`.
    static double uniform_of(std::uint64_t bits, double lo, double hi) {
        const double unit = static_cast<double>(bits >> 11) * 0x1.0p-53;
        return lo + (hi - lo) * unit;
    }

    /// The splitmix64 finalizer.
    static std::uint64_t mix(std::uint64_t z) {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// Well-separated stream seed for (salt, index) pairs: one splitmix64
/// finalize of the xor — cheap, and distinct indices under the same salt
/// land in statistically independent streams.
inline std::uint64_t derive_stream_seed(std::uint64_t salt, std::uint64_t index) {
    return SplitMix64::mix((salt ^ (index * SplitMix64::kGamma)) + SplitMix64::kGamma);
}

} // namespace fmore::stats
