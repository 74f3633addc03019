// Heap allocation counter for the traced run.
//
// alloc_count.cpp replaces the global operator new/delete with malloc/free
// and, while counting is switched on, tallies every operator new call. The
// end-to-end runs leave counting off, so they pay one relaxed atomic load
// per allocation.
#pragma once

#include <cstdint>

namespace perfbench::allocs {

void setCounting(bool on);
/// operator new calls seen while counting was on, process-wide.
std::uint64_t count();

}  // namespace perfbench::allocs
