#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace fmore::ml {

/// Dense row-major float tensor — the minimal substrate the FL engine
/// needs. Shapes are runtime vectors; layers do their own index math for
/// speed. No views/broadcasting: batches are materialized explicitly.
class Tensor {
public:
    Tensor() = default;
    explicit Tensor(std::vector<std::size_t> shape);
    Tensor(std::vector<std::size_t> shape, std::vector<float> data);

    static Tensor zeros(std::vector<std::size_t> shape) { return Tensor(std::move(shape)); }

    [[nodiscard]] const std::vector<std::size_t>& shape() const { return shape_; }
    [[nodiscard]] std::size_t rank() const { return shape_.size(); }
    [[nodiscard]] std::size_t size() const { return data_.size(); }
    [[nodiscard]] std::size_t dim(std::size_t axis) const;

    [[nodiscard]] float* data() { return data_.data(); }
    [[nodiscard]] const float* data() const { return data_.data(); }
    [[nodiscard]] std::vector<float>& storage() { return data_; }
    [[nodiscard]] const std::vector<float>& storage() const { return data_; }

    float& operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /// Reinterpret with a new shape of identical element count.
    [[nodiscard]] Tensor reshaped(std::vector<std::size_t> new_shape) const;

    /// Reshape THIS tensor in place, resizing storage to the new volume.
    /// Storage capacity is kept, which is what lets the in-place layer
    /// protocol reuse one output buffer across calls without allocating.
    /// New elements (if the volume grew) are value-initialized; existing
    /// ones keep their bytes — callers overwrite them.
    void reshape_to(const std::vector<std::size_t>& new_shape);
    /// The same for a braced shape (`t.reshape_to({batch, features})`):
    /// assigned in place, so the shape allocates nothing either.
    void reshape_to(std::initializer_list<std::size_t> new_shape);
    /// The same for the shape [rows, ...row_shape] (a batch of samples).
    void reshape_to(std::size_t rows, const std::vector<std::size_t>& row_shape);

    void fill(float value);

    /// Elementwise checks used in tests.
    [[nodiscard]] bool all_finite() const;

private:
    std::vector<std::size_t> shape_;
    std::vector<float> data_;
};

/// Product of a shape vector.
std::size_t shape_volume(const std::vector<std::size_t>& shape);

} // namespace fmore::ml
