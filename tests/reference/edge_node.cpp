#include "fmore/reference/edge_node.hpp"

#include <algorithm>
#include <stdexcept>

namespace fmore::reference {

EdgeNode::EdgeNode(std::size_t id, double theta, mec::ResourceState initial,
                   mec::ResourceState caps)
    : id_(id), theta_(theta), current_(initial), caps_(caps) {
    current_.data_size = std::min(current_.data_size, caps_.data_size);
    current_.category_proportion =
        std::min(current_.category_proportion, caps_.category_proportion);
    current_.bandwidth_mbps = std::min(current_.bandwidth_mbps, caps_.bandwidth_mbps);
    current_.cpu_cores = std::min(current_.cpu_cores, caps_.cpu_cores);
}

namespace {

double jitter(double value, double cap, double rel, stats::Rng& rng) {
    if (cap <= 0.0 || rel <= 0.0) return value;
    const double step = cap * rel;
    return std::clamp(value + rng.uniform(-step, step), 0.05 * cap, cap);
}

} // namespace

void EdgeNode::evolve(const mec::ResourceDynamics& dynamics, double theta_lo,
                      double theta_hi, stats::Rng& rng) {
    current_.bandwidth_mbps =
        jitter(current_.bandwidth_mbps, caps_.bandwidth_mbps, dynamics.resource_jitter, rng);
    current_.cpu_cores =
        jitter(current_.cpu_cores, caps_.cpu_cores, dynamics.resource_jitter, rng);
    // Data holdings only grow toward the shard cap (nodes accumulate data).
    if (caps_.data_size > 0.0 && dynamics.resource_jitter > 0.0) {
        const double step = caps_.data_size * dynamics.resource_jitter;
        current_.data_size =
            std::clamp(current_.data_size + rng.uniform(0.0, step), 0.0, caps_.data_size);
    }
    if (dynamics.theta_jitter > 0.0) {
        if (!(theta_lo < theta_hi))
            throw std::invalid_argument("EdgeNode::evolve: bad theta bounds");
        theta_ = std::clamp(theta_ + rng.uniform(-dynamics.theta_jitter, dynamics.theta_jitter),
                            theta_lo, theta_hi);
    }
}

} // namespace fmore::reference
