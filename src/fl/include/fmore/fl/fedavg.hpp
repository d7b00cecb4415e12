#pragma once

#include <vector>

namespace fmore::fl {

/// FedAvg global aggregation (paper Eq. 3):
///     w(t+1) = sum_i D_i w_i(t+1) / sum_i D_i
/// `client_params` holds the flat parameter vector of every participating
/// client; `weights` the data sizes D_i.
std::vector<float> federated_average(const std::vector<std::vector<float>>& client_params,
                                     const std::vector<double>& weights);

/// The same average over the clients' vectors read in place, through
/// pointers. `acc` (the double accumulator) and `out` are resized and
/// reused, so a caller that keeps them across rounds allocates nothing;
/// `out` must not be one of the inputs. Each element's sum runs over the
/// clients in order, so the result is bit-identical to the overload above.
void federated_average(const std::vector<const std::vector<float>*>& client_params,
                       const std::vector<double>& weights, std::vector<double>& acc,
                       std::vector<float>& out);

} // namespace fmore::fl
