// The untraced program keeps the library's own allocator: no counting.
#include "alloc_count.hpp"

namespace perfbench::alloc {

bool counting() noexcept { return false; }
std::int64_t live_bytes() noexcept { return 0; }
std::int64_t peak_bytes() noexcept { return 0; }
void reset_peak() noexcept {}

}  // namespace perfbench::alloc
