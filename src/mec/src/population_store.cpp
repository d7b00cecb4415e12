#include "fmore/mec/population_store.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "fmore/stats/chunk_replay.hpp"
#include "fmore/util/thread_pool.hpp"

namespace fmore::mec {

namespace {

/// Nodes per parallel task: big enough that chunk dispatch is noise,
/// small enough that a 100k-node population still spreads over workers.
constexpr std::size_t kEvolveChunk = 4096;

/// Nodes per replayed chunk of a store build (`stats::draw_in_chunks`): a
/// 1M-node store replays in 16 chunks, so it keeps 16 engine copies.
constexpr std::size_t kBuildChunk = 65'536;

/// `init_resources`' `Rng::uniform` draws before theta: the two caps and
/// the three initial-state factors.
constexpr std::size_t kInitUniforms = 5;

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

/// Bits of a row's draw byte (`PopulationStore::draw_bits`): which of the
/// drifting caps a narrowed store left out are positive. The same bits name
/// the drifting columns a store holds.
constexpr unsigned kDrawBandwidth = 1;
constexpr unsigned kDrawCpu = 2;
constexpr unsigned kDrawData = 4;
constexpr unsigned kDrawAll = kDrawBandwidth | kDrawCpu | kDrawData;

/// `PopulationStore::evolve_node` over rows [lo, hi) as one branch-free
/// loop the compiler can vectorize across rows. The per-node code takes a
/// draw only for a positive cap, so a row's later draws sit at positions
/// that depend on its caps. Here every candidate is computed, its draw
/// read straight off the row's stream as output k + 1 (k = draws the row
/// has taken so far), and the update and k's increment become selects.
/// Each row runs the reference's arithmetic in the reference's order, so
/// results are bit-identical (see `DriftKernelMatchesPerNodeReference`).
/// A drifting column missing from `kHeld` (a narrowed store's) only
/// advances k, by its bit of the row's draw byte. One instantiation per
/// jitter case and held set keeps the loop free of branches.
template <bool kResource, bool kTheta, unsigned kHeld>
void drift_rows(const DriftParams& p, std::uint64_t salt, std::size_t lo, std::size_t hi,
                double* __restrict theta, double* __restrict data_size,
                double* __restrict bandwidth, double* __restrict cpu,
                const double* __restrict data_cap,
                const double* __restrict bandwidth_cap,
                const double* __restrict cpu_cap,
                const std::uint8_t* __restrict draw_bits) {
    const std::uint64_t node_offset = p.node_offset;
    const double jitter = p.resource_jitter;
    const double theta_jitter = p.theta_jitter;
    const double theta_lo = p.theta_lo;
    const double theta_hi = p.theta_hi;
    for (std::size_t i = lo; i < hi; ++i) {
        const std::uint64_t seed = stats::derive_stream_seed(salt, node_offset + i);
        std::uint64_t taken = 0;
        if constexpr (kResource) {
            if constexpr ((kHeld & kDrawBandwidth) != 0) {
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
            } else {
                taken += (draw_bits[i] & kDrawBandwidth) != 0 ? 1 : 0;
            }

            if constexpr ((kHeld & kDrawCpu) != 0) {
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
            } else {
                taken += (draw_bits[i] & kDrawCpu) != 0 ? 1 : 0;
            }

            if constexpr ((kHeld & kDrawData) != 0) {
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
            } else {
                taken += (draw_bits[i] & kDrawData) != 0 ? 1 : 0;
            }
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
                             const double*, const double*, const double*,
                             const std::uint8_t*);

/// The resource-drift instantiations for every held set, indexed by it.
template <bool kTheta, unsigned... kHeld>
constexpr std::array<DriftKernel, sizeof...(kHeld)>
resource_kernels(std::integer_sequence<unsigned, kHeld...>) {
    return {&drift_rows<true, kTheta, kHeld>...};
}

/// The instantiation for this round's jitter case and the drifting columns
/// the store holds (`held`, kDraw* bits); null when nothing drifts (the
/// per-node code then takes no draw either).
DriftKernel drift_kernel(const ResourceDynamics& dynamics, unsigned held) {
    static constexpr auto with_theta =
        resource_kernels<true>(std::make_integer_sequence<unsigned, kDrawAll + 1>{});
    static constexpr auto without_theta =
        resource_kernels<false>(std::make_integer_sequence<unsigned, kDrawAll + 1>{});
    const bool theta = dynamics.theta_jitter > 0.0;
    if (dynamics.resource_jitter > 0.0) return (theta ? with_theta : without_theta)[held];
    return theta ? &drift_rows<false, true, kDrawAll> : nullptr;
}

/// Indices into `PopulationStore::kColumns` (snapshot order).
enum ColumnIndex : unsigned {
    kTheta,
    kDataSize,
    kCategory,
    kBandwidth,
    kCpu,
    kDataCap,
    kCategoryCap,
    kBandwidthCap,
    kCpuCap,
    kColumnCount,
};

constexpr unsigned bit(ColumnIndex c) { return 1u << c; }

constexpr unsigned kAllColumns = (1u << kColumnCount) - 1;

/// The kDraw* bits of the drifting columns a slice keeping `keep` leaves
/// out: it needs draw bytes for them when there are any.
constexpr unsigned drifting_left_out(unsigned keep) {
    return ((keep & bit(kBandwidth)) != 0 ? 0 : kDrawBandwidth)
           | ((keep & bit(kCpu)) != 0 ? 0 : kDrawCpu)
           | ((keep & bit(kDataSize)) != 0 ? 0 : kDrawData);
}

/// The columns a narrowed slice over `layout` keeps (bit c for column c):
/// theta, the layout's columns, and the caps of those that drift.
unsigned kept_columns(const std::vector<ResourceDim>& layout) {
    unsigned keep = bit(kTheta);
    for (const ResourceDim dim : layout) {
        switch (dim) {
            case ResourceDim::data_size: keep |= bit(kDataSize) | bit(kDataCap); break;
            case ResourceDim::category_proportion: keep |= bit(kCategory); break;
            case ResourceDim::bandwidth: keep |= bit(kBandwidth) | bit(kBandwidthCap); break;
            case ResourceDim::cpu: keep |= bit(kCpu) | bit(kCpuCap); break;
        }
    }
    return keep;
}

/// Source pages a forked child copies before it returns them: it holds at
/// most this much of a column twice.
constexpr std::size_t kReleasePages = 16;

/// Appends [first, last) to `out`, which it reserves first, one run of
/// whole source pages at a time, returning each run to the kernel once
/// copied. The partial pages at either end stay: they are shared with
/// neighbouring rows.
void append_releasing(const double* first, const double* last, std::vector<double>& out) {
    const std::uintptr_t run = util::page_size() * kReleasePages;
    out.reserve(out.size() + static_cast<std::size_t>(last - first));
    while (first < last) {
        // Up to the next run boundary of the source's addresses.
        const std::uintptr_t at = reinterpret_cast<std::uintptr_t>(first);
        const std::size_t to_boundary = ((at / run + 1) * run - at) / sizeof(double);
        const double* next = first + std::min(to_boundary, static_cast<std::size_t>(last - first));
        out.insert(out.end(), first, next);
        util::release_pages({first, next});
        first = next;
    }
}

} // namespace

// In `ColumnIndex` order, which is the snapshot's.
const PopulationStore::Column PopulationStore::kColumns[9] = {
    {&PopulationStore::theta_, "theta"},
    {&PopulationStore::data_size_, "data_size"},
    {&PopulationStore::category_, "category"},
    {&PopulationStore::bandwidth_, "bandwidth"},
    {&PopulationStore::cpu_, "cpu"},
    {&PopulationStore::data_cap_, "data_cap"},
    {&PopulationStore::category_cap_, "category_cap"},
    {&PopulationStore::bandwidth_cap_, "bandwidth_cap"},
    {&PopulationStore::cpu_cap_, "cpu_cap"},
};

void PopulationStore::throw_left_out(const char* name) {
    throw std::logic_error(std::string("PopulationStore: this narrowed shard left out the ")
                           + name + " column");
}

void PopulationStore::check_slice(const char* what, std::size_t lo, std::size_t hi) const {
    if (lo >= hi || hi > size())
        throw std::invalid_argument(std::string("PopulationStore::") + what + ": rows ["
                                    + std::to_string(lo) + ", " + std::to_string(hi)
                                    + ") are empty or outside [0, "
                                    + std::to_string(size()) + ")");
}

void PopulationStore::init_resources(std::size_t i, const PopulationSpec& spec,
                                     double data_cap, double category,
                                     const stats::Distribution& theta_dist,
                                     stats::Rng& rng) {
    data_cap_[i] = data_cap;
    category_cap_[i] = category;
    bandwidth_cap_[i] = rng.uniform(spec.bandwidth_lo, spec.bandwidth_hi);
    cpu_cap_[i] = rng.uniform(spec.cpu_lo, spec.cpu_hi);

    // Nodes start somewhere inside their envelope, not pinned at it.
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
    build_rows(shards.size(), kInitUniforms, theta_dist, rng,
               [&](stats::Rng& draws, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                       init_resources(i, spec, static_cast<double>(shards[i].indices.size()),
                                      shards[i].category_proportion(num_classes), theta_dist,
                                      draws);
               });
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
    build_rows(num_nodes, 2 + kInitUniforms, theta_dist, rng,
               [&](stats::Rng& draws, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) {
                       const double data_cap = draws.uniform(data.data_lo, data.data_hi);
                       const double category =
                           draws.uniform(data.category_lo, data.category_hi);
                       init_resources(i, spec, data_cap, category, theta_dist, draws);
                   }
               });
}

void PopulationStore::build_rows(
    std::size_t n, std::size_t uniforms_per_row, const stats::Distribution& theta_dist,
    stats::Rng& rng,
    const std::function<void(stats::Rng&, std::size_t, std::size_t)>& draw_rows) {
    // Allocated here, zero-filled by the prepare tasks: on the pool, the
    // page faults of the nine columns run beside the walk.
    for (const Column& c : kColumns) (this->*c.values).reserve(n);
    stats::ChunkedPass pass;
    pass.items = n;
    pass.chunk_items = kBuildChunk;
    pass.prepare_tasks = kColumnCount;
    pass.prepare = [&](std::size_t c) { (this->*kColumns[c].values).resize(n); };
    pass.walk = [&](stats::Rng& walk, std::size_t lo, std::size_t hi) {
        // Each draw before theta is one `Rng::uniform`: one engine output.
        for (std::size_t i = lo; i < hi; ++i) {
            walk.engine().discard(uniforms_per_row);
            (void)theta_dist.sample(walk);
        }
    };
    pass.draw = draw_rows;
    stats::draw_in_chunks(rng, pass);
}

const std::vector<double>& PopulationStore::column(ResourceDim dim) const {
    switch (dim) {
        case ResourceDim::data_size: return held(data_size_, "data_size");
        case ResourceDim::category_proportion: return held(category_, "category");
        case ResourceDim::bandwidth: return held(bandwidth_, "bandwidth");
        case ResourceDim::cpu: return held(cpu_, "cpu");
    }
    throw std::logic_error("PopulationStore: unknown ResourceDim");
}

ResourceState PopulationStore::resources(std::size_t i) const {
    ResourceState r;
    r.data_size = data_size(i);
    r.category_proportion = category_proportion(i);
    r.bandwidth_mbps = bandwidth_mbps(i);
    r.cpu_cores = cpu_cores(i);
    return r;
}

ResourceState PopulationStore::caps(std::size_t i) const {
    ResourceState r;
    r.data_size = held(data_cap_, "data_cap")[i];
    r.category_proportion = held(category_cap_, "category_cap")[i];
    r.bandwidth_mbps = held(bandwidth_cap_, "bandwidth_cap")[i];
    r.cpu_cores = held(cpu_cap_, "cpu_cap")[i];
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

PopulationStore::RowDrift PopulationStore::begin_drift(std::uint64_t salt) {
    begin_round(salt);
    return RowDrift(*this, salt);
}

void PopulationStore::RowDrift::operator()(std::size_t lo, std::size_t hi) const {
    PopulationStore& s = *store_;
    const std::size_t n = s.size();
    const unsigned held_columns = (s.bandwidth_.size() == n ? kDrawBandwidth : 0)
                                  | (s.cpu_.size() == n ? kDrawCpu : 0)
                                  | (s.data_size_.size() == n ? kDrawData : 0);
    const DriftKernel kernel = drift_kernel(s.dynamics_, held_columns);
    if (kernel == nullptr) return;
    const DriftParams params{s.node_offset_, s.dynamics_.resource_jitter,
                             s.dynamics_.theta_jitter, s.theta_lo_, s.theta_hi_};
    kernel(params, salt_, lo, hi, s.theta_.data(), s.data_size_.data(), s.bandwidth_.data(),
           s.cpu_.data(), s.data_cap_.data(), s.bandwidth_cap_.data(), s.cpu_cap_.data(),
           s.draw_bits_.data());
}

void PopulationStore::evolve_with_salt(std::uint64_t salt) {
    const RowDrift drift = begin_drift(salt);
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
    for (const Column& c : kColumns) (void)held(this->*c.values, c.name);
    const std::uint64_t salt = rng.engine()();
    begin_round(salt);
    for (std::size_t i = 0; i < size(); ++i) evolve_node(i, salt);
}

PopulationSnapshot PopulationStore::snapshot() const {
    PopulationSnapshot snap;
    snap.node_offset = node_offset_;
    snap.salt_history = salt_history_;
    snap.columns.reserve(kColumnCount);
    for (const Column& c : kColumns) snap.columns.push_back(held(this->*c.values, c.name));
    return snap;
}

void PopulationStore::restore(const PopulationSnapshot& snap) {
    for (const Column& c : kColumns) (void)held(this->*c.values, c.name);
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
    for (std::size_t c = 0; c < kColumnCount; ++c) this->*kColumns[c].values = snap.columns[c];
}

PopulationStore PopulationStore::slice(std::size_t lo, std::size_t hi) const {
    return slice_columns(lo, hi, kAllColumns, {}, /*release=*/false);
}

PopulationStore PopulationStore::slice(std::size_t lo, std::size_t hi,
                                       const std::vector<ResourceDim>& layout) const {
    check_slice("slice", lo, hi);
    return slice_columns(lo, hi, kept_columns(layout), draw_bits(lo, hi, layout),
                         /*release=*/false);
}

PopulationStore PopulationStore::slice_and_release(std::size_t lo, std::size_t hi,
                                                   const std::vector<ResourceDim>& layout,
                                                   std::vector<std::uint8_t> draw_bits) const {
    check_slice("slice_and_release", lo, hi);
    const unsigned keep = kept_columns(layout);
    const std::size_t expected = drifting_left_out(keep) != 0 ? hi - lo : 0;
    if (draw_bits.size() != expected)
        throw std::invalid_argument("PopulationStore::slice_and_release: "
                                    + std::to_string(draw_bits.size())
                                    + " draw bytes for a narrowed slice that needs "
                                    + std::to_string(expected));
    return slice_columns(lo, hi, keep, std::move(draw_bits), /*release=*/true);
}

std::vector<std::uint8_t> PopulationStore::draw_bits(std::size_t lo, std::size_t hi,
                                                     const std::vector<ResourceDim>& layout) const {
    check_slice("draw_bits", lo, hi);
    const unsigned left_out = drifting_left_out(kept_columns(layout));
    if (left_out == 0) return {};
    // Each left-out cap is read, 8 MB at 1M rows, while the coordinator
    // forks: serially, as pool threads started here would put their stacks
    // into every later fork.
    std::vector<std::uint8_t> bits(hi - lo, 0);
    const auto mark = [&](ColumnIndex cap, unsigned draw) {
        if ((left_out & draw) == 0) return;
        const std::vector<double>& caps = held(this->*kColumns[cap].values, kColumns[cap].name);
        for (std::size_t i = lo; i < hi; ++i)
            bits[i - lo] = static_cast<std::uint8_t>(bits[i - lo] | (caps[i] > 0.0 ? draw : 0));
    };
    mark(kBandwidthCap, kDrawBandwidth);
    mark(kCpuCap, kDrawCpu);
    mark(kDataCap, kDrawData);
    return bits;
}

PopulationStore PopulationStore::slice_columns(std::size_t lo, std::size_t hi, unsigned keep,
                                               std::vector<std::uint8_t> draw_bits,
                                               bool release) const {
    check_slice("slice", lo, hi);
    PopulationStore shard;
    shard.node_offset_ = node_offset_ + lo;
    shard.dynamics_ = dynamics_;
    shard.theta_lo_ = theta_lo_;
    shard.theta_hi_ = theta_hi_;
    shard.draw_bits_ = std::move(draw_bits);
    for (std::size_t c = 0; c < kColumnCount; ++c) {
        if ((keep & (1u << c)) == 0) continue;
        const std::vector<double>& whole = held(this->*kColumns[c].values, kColumns[c].name);
        std::vector<double>& out = shard.*kColumns[c].values;
        if (release)
            append_releasing(whole.data() + lo, whole.data() + hi, out);
        else
            out.assign(whole.begin() + static_cast<std::ptrdiff_t>(lo),
                       whole.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    return shard;
}

std::vector<util::ByteRange> PopulationStore::column_bytes(std::size_t lo,
                                                           std::size_t hi) const {
    if (lo > hi || hi > size())
        throw std::invalid_argument("PopulationStore::column_bytes: rows ["
                                    + std::to_string(lo) + ", " + std::to_string(hi)
                                    + ") outside [0, " + std::to_string(size()) + ")");
    std::vector<util::ByteRange> ranges;
    ranges.reserve(kColumnCount + 1);
    for (const Column& c : kColumns) {
        const std::vector<double>& column = this->*c.values;
        if (column.size() == size()) ranges.push_back({column.data() + lo, column.data() + hi});
    }
    if (!draw_bits_.empty()) ranges.push_back({draw_bits_.data() + lo, draw_bits_.data() + hi});
    return ranges;
}

std::vector<util::ByteRange>
PopulationStore::bytes_outside(std::size_t lo, std::size_t hi,
                               const std::vector<ResourceDim>& layout) const {
    check_slice("bytes_outside", lo, hi);
    const unsigned keep = kept_columns(layout);
    std::vector<util::ByteRange> ranges;
    ranges.reserve(2 * kColumnCount);
    for (std::size_t c = 0; c < kColumnCount; ++c) {
        const double* values = held(this->*kColumns[c].values, kColumns[c].name).data();
        if ((keep & (1u << c)) == 0) {
            ranges.push_back({values, values + size()});
            continue;
        }
        ranges.push_back({values, values + lo});
        ranges.push_back({values + hi, values + size()});
    }
    return ranges;
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

} // namespace fmore::mec
