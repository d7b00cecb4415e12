#include "fmore/ml/tensor.hpp"

#include <cmath>
#include <stdexcept>

namespace fmore::ml {

std::size_t shape_volume(const std::vector<std::size_t>& shape) {
    std::size_t volume = 1;
    for (const std::size_t d : shape) volume *= d;
    return volume;
}

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_volume(shape_), 0.0F) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
    if (data_.size() != shape_volume(shape_))
        throw std::invalid_argument("Tensor: data size does not match shape");
}

std::size_t Tensor::dim(std::size_t axis) const {
    if (axis >= shape_.size()) throw std::out_of_range("Tensor::dim: bad axis");
    return shape_[axis];
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
    if (shape_volume(new_shape) != data_.size())
        throw std::invalid_argument("Tensor::reshaped: element count mismatch");
    return Tensor(std::move(new_shape), data_);
}

void Tensor::reshape_to(const std::vector<std::size_t>& new_shape) {
    shape_ = new_shape;
    data_.resize(shape_volume(shape_));
}

void Tensor::reshape_to(std::initializer_list<std::size_t> new_shape) {
    shape_.assign(new_shape);
    data_.resize(shape_volume(shape_));
}

void Tensor::reshape_to(std::size_t rows, const std::vector<std::size_t>& row_shape) {
    shape_.assign(1, rows);
    shape_.insert(shape_.end(), row_shape.begin(), row_shape.end());
    data_.resize(shape_volume(shape_));
}

void Tensor::fill(float value) {
    for (float& x : data_) x = value;
}

bool Tensor::all_finite() const {
    for (const float x : data_) {
        if (!std::isfinite(x)) return false;
    }
    return true;
}

} // namespace fmore::ml
