// Heap accounting for the traced benchmark program.
//
// perfbench_traced links alloc_count.cpp, which replaces the global
// operator new/delete with counting versions; perfbench (the untraced
// program the end-to-end numbers come from) links alloc_off.cpp instead, so
// its allocations cost exactly what they cost in the library. Counts are the
// allocator's usable bytes of every live C++ heap block, which is what a
// layer's *.counted_kb metric reports next to its modeled metadata bytes.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// True only in the traced program.
[[nodiscard]] bool counting() noexcept;

/// Bytes currently held by live operator-new blocks (0 when not counting).
[[nodiscard]] std::int64_t live_bytes() noexcept;

/// High-water mark of live_bytes() since the last reset_peak().
[[nodiscard]] std::int64_t peak_bytes() noexcept;

/// Restarts the high-water mark at the current live_bytes().
void reset_peak() noexcept;

/// Measures the heap a layer grows by while it runs: construct one before
/// building the layer's objects, read peak_kib() after its pass with the
/// objects still alive.
class PeakScope {
 public:
  PeakScope() noexcept : base_(live_bytes()) { reset_peak(); }
  [[nodiscard]] double peak_kib() const noexcept {
    return static_cast<double>(peak_bytes() - base_) / 1024.0;
  }

 private:
  std::int64_t base_;
};

}  // namespace perfbench::alloc
