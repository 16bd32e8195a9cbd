#ifndef CRAWLBENCH_WORKLOADS_H_
#define CRAWLBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace crawlbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Crawl time to measure; whole rounds run until it is reached.
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for dataset files and snapshots (exists, private
  /// to this run).
  std::string workdir;
  /// CPUs this process may run on.
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's outcome: the operation counts, the metrics (end-to-end when
/// untraced, per-layer when traced) and the run record's details.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checks_passed = 0;
  /// One line per failed operation.
  std::vector<std::string> errors;
  std::string dataset;
  uint64_t dataset_pages = 0;
  unsigned workers = 1;
  /// Pages crawled and crawl time over all crawls of the run (traced or
  /// not, so the two kinds of run can be compared for overhead).
  uint64_t pages = 0;
  double crawl_wall_s = 0;
  double crawl_cpu_s = 0;
  std::vector<Metric> metrics;
  /// The program's own stage totals and counters (--stats-json), traced
  /// runs only.
  std::string program_stats;
};

/// Every run makes at least this many rounds, so the check that later
/// rounds repeat the first always has a round to compare.
inline constexpr int kMinRounds = 2;

/// Runs `round(index)`, one whole round of operations, until at least
/// kMinRounds have run and the crawls have taken `seconds` in all
/// (`*crawl_wall_ns`, which the rounds advance). A round in which every
/// operation failed ends the run at once: a program that fails
/// instantly would otherwise spin through rounds without ever reaching
/// the crawl time. Every run therefore attempts whole rounds.
template <typename RoundFn>
void RunRounds(double seconds, const uint64_t* crawl_wall_ns,
               RunReport* report, RoundFn round) {
  for (int index = 0;; ++index) {
    const uint64_t attempted = report->attempted;
    const uint64_t failed = report->failed;
    round(index);
    if (report->failed - failed == report->attempted - attempted) return;
    if (index + 1 >= kMinRounds &&
        static_cast<double>(*crawl_wall_ns) >= seconds * 1e9) {
      return;
    }
  }
}

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. An error means the run could not be set up (the
/// dataset could not be built); failures of crawls are counted instead.
lswc::StatusOr<RunReport> RunWorkload(const RunArgs& args);

/// Feeds every output check one clean and one doctored input built from
/// a small crawl, and RunRounds one round that fails at once; "" when
/// each check accepts the first and rejects the second and RunRounds
/// stops after the failed round.
std::string SelfTestChecks();

}  // namespace crawlbench

#endif  // CRAWLBENCH_WORKLOADS_H_
