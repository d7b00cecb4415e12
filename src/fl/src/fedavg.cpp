#include "fmore/fl/fedavg.hpp"

#include <stdexcept>

namespace fmore::fl {

void federated_average(const std::vector<const std::vector<float>*>& client_params,
                       const std::vector<double>& weights, std::vector<double>& acc,
                       std::vector<float>& out) {
    if (client_params.empty())
        throw std::invalid_argument("federated_average: no clients");
    if (client_params.size() != weights.size())
        throw std::invalid_argument("federated_average: weight count mismatch");

    const std::size_t dim = client_params.front()->size();
    double total_weight = 0.0;
    for (const double w : weights) {
        if (!(w > 0.0)) throw std::invalid_argument("federated_average: weights must be > 0");
        total_weight += w;
    }

    acc.assign(dim, 0.0);
    for (std::size_t c = 0; c < client_params.size(); ++c) {
        if (client_params[c]->size() != dim)
            throw std::invalid_argument("federated_average: parameter size mismatch");
        const double w = weights[c] / total_weight;
        const float* params = client_params[c]->data();
        for (std::size_t i = 0; i < dim; ++i) {
            acc[i] += w * static_cast<double>(params[i]);
        }
    }
    out.resize(dim);
    for (std::size_t i = 0; i < dim; ++i) out[i] = static_cast<float>(acc[i]);
}

std::vector<float> federated_average(const std::vector<std::vector<float>>& client_params,
                                     const std::vector<double>& weights) {
    std::vector<const std::vector<float>*> views;
    views.reserve(client_params.size());
    for (const std::vector<float>& params : client_params) views.push_back(&params);
    std::vector<double> acc;
    std::vector<float> out;
    federated_average(views, weights, acc, out);
    return out;
}

} // namespace fmore::fl
