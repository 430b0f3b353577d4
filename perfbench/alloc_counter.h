// Heap-allocation counting for the benchmark binary.
//
// alloc_counter.cc replaces the global operator new/delete family with
// wrappers that, once counting is enabled, count calls and requested bytes
// in relaxed atomics. The counters are process-wide: around a call made from
// one thread with no other thread running (tpch_mix) the delta is exact;
// around a serving call it also includes the scheduler worker's allocations.
// Counting is off by default because the two atomic adds per allocation
// cost measurable wall time in allocation-heavy queries.
#ifndef KF_PERFBENCH_ALLOC_COUNTER_H_
#define KF_PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace kf::perfbench {

struct AllocCounts {
  std::uint64_t count = 0;  // successful operator-new calls, all variants
  std::uint64_t bytes = 0;  // bytes requested by those calls
};

// Turns counting on or off; call before other threads start.
void EnableAllocCounting(bool on);

AllocCounts CurrentAllocCounts();

inline AllocCounts operator-(const AllocCounts& a, const AllocCounts& b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

}  // namespace kf::perfbench

#endif  // KF_PERFBENCH_ALLOC_COUNTER_H_
