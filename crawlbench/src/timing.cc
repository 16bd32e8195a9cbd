#include "timing.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <vector>

namespace crawlbench {

namespace {
uint64_t TimevalNs(const timeval& tv) {
  return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
}

uint64_t CalibrateClockPair() {
  std::vector<uint64_t> deltas(1001);
  for (uint64_t& d : deltas) {
    const uint64_t a = NowNs();
    d = NowNs() - a;
  }
  std::nth_element(deltas.begin(), deltas.begin() + deltas.size() / 2,
                   deltas.end());
  return deltas[deltas.size() / 2];
}
}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalNs(usage.ru_utime) + TimevalNs(usage.ru_stime);
}

uint64_t ClockPairOverheadNs() {
  static const uint64_t overhead = CalibrateClockPair();
  return overhead;
}

}  // namespace crawlbench
