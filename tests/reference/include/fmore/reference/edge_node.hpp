#pragma once

/// @file edge_node.hpp
/// One edge node as a struct with its own drift, the array-of-structs model
/// the structure-of-arrays `mec::PopulationStore` replaced. Kept outside
/// the libraries for `bench/scale_round`'s classic leg, whose evolve cost
/// is this serial walk with one shared generator, and for the suite that
/// pins the walk's envelope.

#include <cstddef>

#include "fmore/mec/population_store.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::reference {

/// One edge node: identity, private cost type, current resources and the
/// hard caps it can never exceed (its shard size, NIC speed, core count).
class EdgeNode {
public:
    EdgeNode(std::size_t id, double theta, mec::ResourceState initial,
             mec::ResourceState caps);

    [[nodiscard]] std::size_t id() const { return id_; }
    [[nodiscard]] double theta() const { return theta_; }
    [[nodiscard]] const mec::ResourceState& resources() const { return current_; }
    [[nodiscard]] const mec::ResourceState& caps() const { return caps_; }

    /// One round of resource drift within [0, cap] per dimension plus theta
    /// drift within [theta_lo, theta_hi], drawn from the caller's generator.
    void evolve(const mec::ResourceDynamics& dynamics, double theta_lo, double theta_hi,
                stats::Rng& rng);

private:
    std::size_t id_;
    double theta_;
    mec::ResourceState current_;
    mec::ResourceState caps_;
};

} // namespace fmore::reference
