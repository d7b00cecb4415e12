#include "fmore/stats/rng.hpp"

#include <algorithm>
#include <stdexcept>

namespace fmore::stats {

double Rng::uniform(double lo, double hi) {
    if (!(lo <= hi)) throw std::invalid_argument("Rng::uniform: lo > hi");
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

void Rng::skip_normals(std::size_t count) {
    // libstdc++'s normal_distribution draws pairs on [-1, 1)^2 from
    // generate_canonical until one lands inside the unit disc, minus its
    // centre. `count` normals are the pairs up to the count-th accepted one;
    // counting acceptances leaves the loop no branch on the pair (its accept
    // test would mispredict about one time in five).
    std::size_t accepted = 0;
    while (accepted < count) {
        const double x = 2.0 * std::generate_canonical<double, 53>(engine_) - 1.0;
        const double y = 2.0 * std::generate_canonical<double, 53>(engine_) - 1.0;
        const double r2 = x * x + y * y;
        accepted += (r2 <= 1.0 && r2 != 0.0) ? 1 : 0;
    }
}

bool Rng::bernoulli(double p_true) {
    p_true = std::clamp(p_true, 0.0, 1.0);
    std::bernoulli_distribution dist(p_true);
    return dist(engine_);
}

void Rng::shuffle(std::vector<std::size_t>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
    if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    // Partial Fisher-Yates: only the first k positions need to be shuffled.
    for (std::size_t i = 0; i < k; ++i) {
        const auto j = static_cast<std::size_t>(uniform_int(static_cast<std::int64_t>(i),
                                                            static_cast<std::int64_t>(n - 1)));
        std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
}

Rng Rng::split() {
    // splitmix64 finalizer over the next raw output gives a well-separated
    // child stream.
    std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
    return Rng(z);
}

} // namespace fmore::stats
