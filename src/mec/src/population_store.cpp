#include "fmore/mec/population_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "fmore/util/thread_pool.hpp"

namespace fmore::mec {

namespace {

/// Nodes per parallel task: big enough that chunk dispatch is noise,
/// small enough that a 100k-node population still spreads over workers.
constexpr std::size_t kEvolveChunk = 4096;

/// The drift's per-round constants.
struct DriftParams {
    std::uint64_t node_offset;
    double resource_jitter;
    double theta_jitter;
    double theta_lo;
    double theta_hi;
};

/// std::clamp's value, min(max(v, lo), hi), without its lo <= hi
/// precondition: the kernel clamps every candidate, also on rows whose
/// cap is not positive and whose update is then discarded.
inline double clamp_value(double v, double lo, double hi) {
    return std::min(std::max(v, lo), hi);
}

/// `PopulationStore::evolve_node` over rows [lo, hi) as one branch-free
/// loop the compiler can vectorize across rows. The per-node code takes a
/// draw only for a positive cap, so a row's later draws sit at positions
/// that depend on its caps. Here every candidate is computed, its draw
/// read straight off the row's stream as output k + 1 (k = draws the row
/// has taken so far), and the update and k's increment become selects.
/// Each row runs the reference's arithmetic in the reference's order, so
/// results are bit-identical (see `DriftKernelMatchesPerNodeReference`).
/// One instantiation per jitter case keeps the loop free of branches.
template <bool kResource, bool kTheta>
void drift_rows(const DriftParams& p, std::uint64_t salt, std::size_t lo, std::size_t hi,
                double* __restrict theta, double* __restrict data_size,
                double* __restrict bandwidth, double* __restrict cpu,
                const double* __restrict data_cap,
                const double* __restrict bandwidth_cap,
                const double* __restrict cpu_cap) {
    const std::uint64_t node_offset = p.node_offset;
    const double jitter = p.resource_jitter;
    const double theta_jitter = p.theta_jitter;
    const double theta_lo = p.theta_lo;
    const double theta_hi = p.theta_hi;
    for (std::size_t i = lo; i < hi; ++i) {
        const std::uint64_t seed = stats::derive_stream_seed(salt, node_offset + i);
        std::uint64_t taken = 0;
        if constexpr (kResource) {
            const double bw_cap = bandwidth_cap[i];
            const bool bw_live = bw_cap > 0.0;
            const double bw_step = bw_cap * jitter;
            const double bw = clamp_value(
                bandwidth[i]
                    + stats::SplitMix64::uniform_of(
                        stats::SplitMix64::nth(seed, taken + 1), -bw_step, bw_step),
                0.05 * bw_cap, bw_cap);
            bandwidth[i] = bw_live ? bw : bandwidth[i];
            taken += bw_live ? 1 : 0;

            const double cpu_cap_i = cpu_cap[i];
            const bool cpu_live = cpu_cap_i > 0.0;
            const double cpu_step = cpu_cap_i * jitter;
            const double cores = clamp_value(
                cpu[i]
                    + stats::SplitMix64::uniform_of(
                        stats::SplitMix64::nth(seed, taken + 1), -cpu_step, cpu_step),
                0.05 * cpu_cap_i, cpu_cap_i);
            cpu[i] = cpu_live ? cores : cpu[i];
            taken += cpu_live ? 1 : 0;

            const double d_cap = data_cap[i];
            const bool data_live = d_cap > 0.0;
            const double data_step = d_cap * jitter;
            const double data = clamp_value(
                data_size[i]
                    + stats::SplitMix64::uniform_of(
                        stats::SplitMix64::nth(seed, taken + 1), 0.0, data_step),
                0.0, d_cap);
            data_size[i] = data_live ? data : data_size[i];
            taken += data_live ? 1 : 0;
        }
        if constexpr (kTheta) {
            theta[i] = clamp_value(
                theta[i]
                    + stats::SplitMix64::uniform_of(stats::SplitMix64::nth(seed, taken + 1),
                                                    -theta_jitter, theta_jitter),
                theta_lo, theta_hi);
        }
    }
}

using DriftKernel = void (*)(const DriftParams&, std::uint64_t, std::size_t,
                             std::size_t, double*, double*, double*, double*,
                             const double*, const double*, const double*);

/// The instantiation for this round's jitter case; null when nothing
/// drifts (the per-node code then takes no draw either).
DriftKernel drift_kernel(const ResourceDynamics& dynamics) {
    const bool resource = dynamics.resource_jitter > 0.0;
    const bool theta = dynamics.theta_jitter > 0.0;
    if (resource) return theta ? &drift_rows<true, true> : &drift_rows<true, false>;
    return theta ? &drift_rows<false, true> : nullptr;
}

} // namespace

void PopulationStore::init_resources(std::size_t i, const PopulationSpec& spec,
                                     double data_cap, double category,
                                     const stats::Distribution& theta_dist,
                                     stats::Rng& rng) {
    data_cap_[i] = data_cap;
    category_cap_[i] = category;
    bandwidth_cap_[i] = rng.uniform(spec.bandwidth_lo, spec.bandwidth_hi);
    cpu_cap_[i] = rng.uniform(spec.cpu_lo, spec.cpu_hi);

    // Nodes start somewhere inside their envelope, not pinned at it (same
    // draws, in the same order, as the historical AoS constructor).
    bandwidth_[i] = bandwidth_cap_[i] * rng.uniform(0.6, 1.0);
    cpu_[i] = cpu_cap_[i] * rng.uniform(0.6, 1.0);
    data_size_[i] = data_cap_[i] * rng.uniform(0.8, 1.0);
    category_[i] = category;
    theta_[i] = theta_dist.sample(rng);
}

PopulationStore::PopulationStore(const std::vector<ml::ClientShard>& shards,
                                 std::size_t num_classes,
                                 const stats::Distribution& theta_dist,
                                 const PopulationSpec& spec, stats::Rng& rng)
    : dynamics_(spec.dynamics),
      theta_lo_(theta_dist.support_lo()),
      theta_hi_(theta_dist.support_hi()) {
    if (shards.empty()) throw std::invalid_argument("PopulationStore: no shards");
    const std::size_t n = shards.size();
    theta_.resize(n);
    data_size_.resize(n);
    category_.resize(n);
    bandwidth_.resize(n);
    cpu_.resize(n);
    data_cap_.resize(n);
    category_cap_.resize(n);
    bandwidth_cap_.resize(n);
    cpu_cap_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        init_resources(i, spec, static_cast<double>(shards[i].indices.size()),
                       shards[i].category_proportion(num_classes), theta_dist, rng);
    }
}

PopulationStore::PopulationStore(std::size_t num_nodes, const SyntheticDataSpec& data,
                                 const stats::Distribution& theta_dist,
                                 const PopulationSpec& spec, stats::Rng& rng)
    : dynamics_(spec.dynamics),
      theta_lo_(theta_dist.support_lo()),
      theta_hi_(theta_dist.support_hi()) {
    if (num_nodes == 0)
        throw std::invalid_argument("PopulationStore: num_nodes must be >= 1");
    if (!(data.data_lo <= data.data_hi) || !(data.category_lo <= data.category_hi))
        throw std::invalid_argument("PopulationStore: bad synthetic data ranges");
    theta_.resize(num_nodes);
    data_size_.resize(num_nodes);
    category_.resize(num_nodes);
    bandwidth_.resize(num_nodes);
    cpu_.resize(num_nodes);
    data_cap_.resize(num_nodes);
    category_cap_.resize(num_nodes);
    bandwidth_cap_.resize(num_nodes);
    cpu_cap_.resize(num_nodes);
    for (std::size_t i = 0; i < num_nodes; ++i) {
        const double data_cap = rng.uniform(data.data_lo, data.data_hi);
        const double category = rng.uniform(data.category_lo, data.category_hi);
        init_resources(i, spec, data_cap, category, theta_dist, rng);
    }
}

const std::vector<double>& PopulationStore::column(ResourceDim dim) const {
    switch (dim) {
        case ResourceDim::data_size: return data_size_;
        case ResourceDim::category_proportion: return category_;
        case ResourceDim::bandwidth: return bandwidth_;
        case ResourceDim::cpu: return cpu_;
    }
    throw std::logic_error("PopulationStore: unknown ResourceDim");
}

ResourceState PopulationStore::resources(std::size_t i) const {
    ResourceState r;
    r.data_size = data_size_[i];
    r.category_proportion = category_[i];
    r.bandwidth_mbps = bandwidth_[i];
    r.cpu_cores = cpu_[i];
    return r;
}

ResourceState PopulationStore::caps(std::size_t i) const {
    ResourceState r;
    r.data_size = data_cap_[i];
    r.category_proportion = category_cap_[i];
    r.bandwidth_mbps = bandwidth_cap_[i];
    r.cpu_cores = cpu_cap_[i];
    return r;
}

void PopulationStore::evolve_node(std::size_t i, std::uint64_t salt) {
    // Streams are keyed by GLOBAL id: a shard store replays exactly the
    // draws its rows would see inside the unsplit store.
    stats::SplitMix64 stream(stats::derive_stream_seed(salt, node_offset_ + i));
    const double jitter = dynamics_.resource_jitter;
    if (jitter > 0.0) {
        if (bandwidth_cap_[i] > 0.0) {
            const double step = bandwidth_cap_[i] * jitter;
            bandwidth_[i] = std::clamp(bandwidth_[i] + stream.uniform(-step, step),
                                       0.05 * bandwidth_cap_[i], bandwidth_cap_[i]);
        }
        if (cpu_cap_[i] > 0.0) {
            const double step = cpu_cap_[i] * jitter;
            cpu_[i] = std::clamp(cpu_[i] + stream.uniform(-step, step),
                                 0.05 * cpu_cap_[i], cpu_cap_[i]);
        }
        // Data holdings only grow toward the shard cap (nodes accumulate
        // data).
        if (data_cap_[i] > 0.0) {
            const double step = data_cap_[i] * jitter;
            data_size_[i] = std::clamp(data_size_[i] + stream.uniform(0.0, step), 0.0,
                                       data_cap_[i]);
        }
    }
    if (dynamics_.theta_jitter > 0.0) {
        theta_[i] = std::clamp(
            theta_[i] + stream.uniform(-dynamics_.theta_jitter, dynamics_.theta_jitter),
            theta_lo_, theta_hi_);
    }
}

void PopulationStore::begin_round(std::uint64_t salt) {
    if (dynamics_.theta_jitter > 0.0 && !(theta_lo_ < theta_hi_))
        throw std::invalid_argument("PopulationStore::evolve: bad theta bounds");
    salt_history_.push_back(salt);
}

void PopulationStore::evolve_with_salt(std::uint64_t salt) {
    begin_round(salt);
    const DriftKernel kernel = drift_kernel(dynamics_);
    if (kernel == nullptr) return;
    const DriftParams params{node_offset_, dynamics_.resource_jitter,
                             dynamics_.theta_jitter, theta_lo_, theta_hi_};
    const auto drift = [&](std::size_t lo, std::size_t hi) {
        kernel(params, salt, lo, hi, theta_.data(), data_size_.data(), bandwidth_.data(),
               cpu_.data(), data_cap_.data(), bandwidth_cap_.data(), cpu_cap_.data());
    };
    const std::size_t n = size();
    const std::size_t chunks = (n + kEvolveChunk - 1) / kEvolveChunk;
    const std::size_t workers = chunks <= 1 ? 1 : util::resolve_round_threads(0, chunks);
    if (workers <= 1) {
        drift(0, n);
        return;
    }
    util::ThreadPool::shared().parallel_for(
        chunks, workers - 1, [&](std::size_t, std::size_t chunk) {
            const std::size_t lo = chunk * kEvolveChunk;
            drift(lo, std::min(n, lo + kEvolveChunk));
        });
}

void PopulationStore::evolve(stats::Rng& rng) { evolve_with_salt(rng.engine()()); }

void PopulationStore::evolve_serial(stats::Rng& rng) {
    const std::uint64_t salt = rng.engine()();
    begin_round(salt);
    for (std::size_t i = 0; i < size(); ++i) evolve_node(i, salt);
}

PopulationSnapshot PopulationStore::snapshot() const {
    PopulationSnapshot snap;
    snap.node_offset = node_offset_;
    snap.salt_history = salt_history_;
    snap.columns = {theta_,    data_size_,    category_,     bandwidth_,
                    cpu_,      data_cap_,     category_cap_, bandwidth_cap_,
                    cpu_cap_};
    return snap;
}

void PopulationStore::restore(const PopulationSnapshot& snap) {
    if (snap.columns.size() != 9)
        throw std::invalid_argument("PopulationStore::restore: expected 9 columns, got "
                                    + std::to_string(snap.columns.size()));
    for (const std::vector<double>& col : snap.columns)
        if (col.size() != size())
            throw std::invalid_argument(
                "PopulationStore::restore: snapshot holds " + std::to_string(col.size())
                + " nodes, store holds " + std::to_string(size()));
    if (snap.node_offset != node_offset_)
        throw std::invalid_argument(
            "PopulationStore::restore: snapshot node_offset "
            + std::to_string(snap.node_offset) + " != store node_offset "
            + std::to_string(node_offset_));
    salt_history_ = snap.salt_history;
    theta_ = snap.columns[0];
    data_size_ = snap.columns[1];
    category_ = snap.columns[2];
    bandwidth_ = snap.columns[3];
    cpu_ = snap.columns[4];
    data_cap_ = snap.columns[5];
    category_cap_ = snap.columns[6];
    bandwidth_cap_ = snap.columns[7];
    cpu_cap_ = snap.columns[8];
}

PopulationStore PopulationStore::slice(std::size_t lo, std::size_t hi) const {
    return slice_columns(lo, hi, /*release=*/false);
}

PopulationStore PopulationStore::slice_and_release(std::size_t lo, std::size_t hi) const {
    return slice_columns(lo, hi, /*release=*/true);
}

PopulationStore PopulationStore::slice_columns(std::size_t lo, std::size_t hi,
                                               bool release) const {
    if (lo >= hi || hi > size())
        throw std::invalid_argument("PopulationStore::slice: rows [" + std::to_string(lo)
                                    + ", " + std::to_string(hi)
                                    + ") are empty or outside [0, "
                                    + std::to_string(size()) + ")");
    PopulationStore shard;
    shard.node_offset_ = node_offset_ + lo;
    shard.dynamics_ = dynamics_;
    shard.theta_lo_ = theta_lo_;
    shard.theta_hi_ = theta_hi_;
    // Column by column, each source released before the next copy: a
    // forked child then never holds more than one column twice.
    const auto copy = [&](const std::vector<double>& whole, std::vector<double>& out) {
        out.assign(whole.begin() + static_cast<std::ptrdiff_t>(lo),
                   whole.begin() + static_cast<std::ptrdiff_t>(hi));
        if (release) util::release_pages({whole.data() + lo, whole.data() + hi});
    };
    copy(theta_, shard.theta_);
    copy(data_size_, shard.data_size_);
    copy(category_, shard.category_);
    copy(bandwidth_, shard.bandwidth_);
    copy(cpu_, shard.cpu_);
    copy(data_cap_, shard.data_cap_);
    copy(category_cap_, shard.category_cap_);
    copy(bandwidth_cap_, shard.bandwidth_cap_);
    copy(cpu_cap_, shard.cpu_cap_);
    return shard;
}

std::vector<util::ByteRange> PopulationStore::column_bytes(std::size_t lo,
                                                           std::size_t hi) const {
    if (lo > hi || hi > size())
        throw std::invalid_argument("PopulationStore::column_bytes: rows ["
                                    + std::to_string(lo) + ", " + std::to_string(hi)
                                    + ") outside [0, " + std::to_string(size()) + ")");
    std::vector<util::ByteRange> ranges;
    ranges.reserve(9);
    for (const std::vector<double>* column :
         {&theta_, &data_size_, &category_, &bandwidth_, &cpu_, &data_cap_, &category_cap_,
          &bandwidth_cap_, &cpu_cap_})
        ranges.push_back({column->data() + lo, column->data() + hi});
    return ranges;
}

std::vector<PopulationStore>
PopulationStore::split(const std::vector<std::size_t>& boundaries) const {
    const std::size_t n = size();
    for (std::size_t b = 0; b < boundaries.size(); ++b) {
        if (boundaries[b] == 0 || boundaries[b] >= n)
            throw std::invalid_argument(
                "PopulationStore::split: boundary " + std::to_string(boundaries[b])
                + " outside (0, " + std::to_string(n) + ")");
        if (b > 0 && boundaries[b] <= boundaries[b - 1])
            throw std::invalid_argument(
                "PopulationStore::split: boundaries must be strictly increasing");
    }
    std::vector<PopulationStore> shards;
    shards.reserve(boundaries.size() + 1);
    std::size_t lo = 0;
    for (std::size_t b = 0; b <= boundaries.size(); ++b) {
        const std::size_t hi = b < boundaries.size() ? boundaries[b] : n;
        shards.push_back(slice(lo, hi));
        lo = hi;
    }
    return shards;
}

std::vector<std::size_t> PopulationStore::even_boundaries(std::size_t size,
                                                          std::size_t num_shards) {
    if (num_shards == 0 || num_shards > size)
        throw std::invalid_argument("PopulationStore: num_shards = "
                                    + std::to_string(num_shards)
                                    + " must be in [1, size = " + std::to_string(size)
                                    + "]");
    const std::size_t base = size / num_shards;
    const std::size_t extra = size % num_shards;
    std::vector<std::size_t> cuts;
    cuts.reserve(num_shards - 1);
    std::size_t at = 0;
    for (std::size_t s = 0; s + 1 < num_shards; ++s) {
        at += base + (s < extra ? 1 : 0);
        cuts.push_back(at);
    }
    return cuts;
}

std::vector<PopulationStore> PopulationStore::split_even(std::size_t num_shards) const {
    return split(even_boundaries(size(), num_shards));
}

} // namespace fmore::mec
