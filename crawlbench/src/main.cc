// crawlbench: runs one workload of the crawl benchmark and prints its
// run record and, as the last line of standard output, its result:
//
//   crawlbench --workload NAME --seed N --seconds S --trace 0|1
//              [--workdir DIR]
//
// The result is one JSON object {"correct", "attempted", "failed",
// "metrics"}; untraced runs report the end-to-end metrics, traced runs
// the per-layer ones. The line before it is the run record
// {"record": {...}}. Exit status 0 when the run completed (failed
// operations are counted, not fatal), 2 on bad arguments, 1 when the
// workload could not be set up.

#include <sched.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "timing.h"
#include "util/build_info.h"
#include "workloads.h"

namespace crawlbench {
namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as the same double: every digit kept.
std::string JsonNumber(double v) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

unsigned AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

std::string RecordLine(const RunArgs& args, const RunReport& report,
                       const std::string& self_test) {
  const lswc::util::BuildInfo& build = lswc::util::GetBuildInfo();
  std::string errors = "[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    errors += (i == 0 ? "" : ",") + JsonString(report.errors[i]);
  }
  errors += "]";
  return std::string("{\"record\": {") +
         "\"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + JsonNumber(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"dataset\": " + JsonString(report.dataset) +
         ", \"dataset_pages\": " + std::to_string(report.dataset_pages) +
         ", \"workers\": " + std::to_string(report.workers) +
         ", \"nproc\": " + std::to_string(args.nproc) +
         ", \"pages\": " + std::to_string(report.pages) +
         ", \"crawl_wall_s\": " + JsonNumber(report.crawl_wall_s) +
         ", \"crawl_cpu_s\": " + JsonNumber(report.crawl_cpu_s) +
         ", \"build_info\": {\"version\": " + JsonString(build.version) +
         ", \"git_sha\": " + JsonString(build.git_sha) +
         ", \"build_type\": " + JsonString(build.build_type) + "}" +
         ", \"attempted\": " + std::to_string(report.attempted) +
         ", \"failed\": " + std::to_string(report.failed) +
         ", \"checks_passed\": " + std::to_string(report.checks_passed) +
         ", \"self_test\": " +
         JsonString(self_test.empty() ? "pass" : self_test) +
         ", \"errors\": " + errors + ", \"program_stats\": " +
         (report.program_stats.empty() ? "null" : report.program_stats) +
         "}}";
}

std::string ResultLine(const RunReport& report, bool correct) {
  std::string metrics;
  for (const Metric& m : report.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(report.attempted) +
         ", \"failed\": " + std::to_string(report.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "crawlbench: %s\nusage: crawlbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  std::string workdir_root = ".bench_build/work";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string_view::npos) {
      value = std::string(flag.substr(eq + 1));
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value");
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 3600) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      workdir_root = value;
    } else {
      return Usage("unknown flag");
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == args.workload;
  if (!known || !have_seed) return Usage("need a known --workload and --seed");
  args.nproc = AvailableCpus();
  t_crawl_thread = true;

  args.workdir = workdir_root + "/" + args.workload + "-" +
                 std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "crawlbench: cannot create %s: %s\n",
                 args.workdir.c_str(), ec.message().c_str());
    return 1;
  }
  const std::string self_test = SelfTestChecks();
  auto report = RunWorkload(args);
  std::filesystem::remove_all(args.workdir, ec);
  if (!report.ok()) {
    std::fprintf(stderr, "crawlbench: %s set-up failed: %s\n",
                 args.workload.c_str(), report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& error : report->errors) {
    std::fprintf(stderr, "crawlbench: FAILED %s\n", error.c_str());
  }
  if (!self_test.empty()) {
    std::fprintf(stderr, "crawlbench: check self-test: %s\n",
                 self_test.c_str());
  }
  std::printf("%s\n%s\n", RecordLine(args, *report, self_test).c_str(),
              ResultLine(*report, report->correct && self_test.empty())
                  .c_str());
  return std::fflush(stdout) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace crawlbench

int main(int argc, char** argv) { return crawlbench::Main(argc, argv); }
