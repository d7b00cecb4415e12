#pragma once

/// @file counting_new.hpp
/// The allocation suites replace the global operator new (counting_new.cpp)
/// to count every heap allocation the process makes, and the bytes they
/// ask for, so they share a test binary of their own.

#include <cstddef>

namespace fmore {

/// Heap allocations through operator new since the process started.
[[nodiscard]] std::size_t allocation_count();

/// Bytes those allocations asked for (frees are not subtracted).
[[nodiscard]] std::size_t allocated_bytes();

} // namespace fmore
