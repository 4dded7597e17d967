// Process-wide allocation counters (see alloc_count.cc).
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

AllocCounts ReadAllocCounts();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
