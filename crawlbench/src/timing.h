#ifndef CRAWLBENCH_TIMING_H_
#define CRAWLBENCH_TIMING_H_
// Clocks and sampled call timers for the benchmark's own spans. Every
// per-layer number the traced run prints is measured here, around calls
// into the program's public functions; nothing inside the program is
// instrumented for the benchmark.

#include <cstdint>

namespace crawlbench {

/// Monotonic wall clock in nanoseconds.
uint64_t NowNs();

/// User + system CPU time of the whole process (all threads), in ns.
uint64_t ProcessCpuNs();

/// The cost of one back-to-back pair of NowNs() reads (median of a
/// calibration burst, measured once). Subtracted from every timed call
/// so a 20 ns call is not reported as 40 ns.
uint64_t ClockPairOverheadNs();

/// True on the thread that drives the crawl loop. Decorators split their
/// calls by it, so the engine's self time subtracts only the work done
/// on the loop's own thread and never the parallel visit workers'.
inline thread_local bool t_crawl_thread = false;

/// Calls counted at one call site, with the time of a deterministic
/// sample of them: the call index decides, so the same crawl samples the
/// same calls on every run.
struct CallStats {
  uint64_t calls = 0;
  uint64_t timed = 0;
  uint64_t timed_ns = 0;

  void Merge(const CallStats& other) {
    calls += other.calls;
    timed += other.timed;
    timed_ns += other.timed_ns;
  }
  /// Mean duration of a timed call (0 when nothing was timed).
  double MeanNs() const {
    return timed == 0 ? 0.0 : static_cast<double>(timed_ns) / timed;
  }
  /// The sampled time extrapolated to every call.
  double TotalNs() const { return MeanNs() * static_cast<double>(calls); }
};

/// Calls split by the thread that made them (see t_crawl_thread).
struct SplitStats {
  CallStats crawl_thread;
  CallStats other_threads;

  CallStats& Current() {
    return t_crawl_thread ? crawl_thread : other_threads;
  }
  CallStats Both() const {
    CallStats all = crawl_thread;
    all.Merge(other_threads);
    return all;
  }
  void Merge(const SplitStats& other) {
    crawl_thread.Merge(other.crawl_thread);
    other_threads.Merge(other.other_threads);
  }
};

/// Times 1 call in 16 at per-page and per-link call sites: two clock
/// reads cost about as much as a label-only crawl step, so timing every
/// call would distort the very loop being measured.
inline constexpr uint64_t kSampleMask = 15;

/// RAII probe: counts the call and, on sampled calls, times it.
class Probe {
 public:
  Probe(CallStats* stats, uint64_t mask) : stats_(stats) {
    timed_ = (stats_->calls++ & mask) == 0;
    if (timed_) start_ = NowNs();
  }
  ~Probe() {
    if (!timed_) return;
    const uint64_t elapsed = NowNs() - start_;
    const uint64_t overhead = ClockPairOverheadNs();
    ++stats_->timed;
    stats_->timed_ns += elapsed > overhead ? elapsed - overhead : 0;
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  CallStats* stats_;
  bool timed_ = false;
  uint64_t start_ = 0;
};

/// Wall and CPU time of one interval.
struct Interval {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
};

/// Measures wall and process CPU from construction to Stop().
class Stopwatch {
 public:
  Stopwatch() : wall_(NowNs()), cpu_(ProcessCpuNs()) {}
  Interval Stop() const {
    return Interval{NowNs() - wall_, ProcessCpuNs() - cpu_};
  }

 private:
  uint64_t wall_;
  uint64_t cpu_;
};

}  // namespace crawlbench

#endif  // CRAWLBENCH_TIMING_H_
