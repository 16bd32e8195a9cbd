// Self-test of the output checks: each check must accept the output of a
// small real crawl and reject one doctored copy of it. A check that
// passes a doctored input would let a broken program through unseen.
// The inputs are fixed (they do not depend on the run seed) and take a
// few milliseconds. The round loop is tested the same way, on rounds
// that only pretend to crawl.

#include <algorithm>
#include <utility>

#include "checks.h"
#include "core/classifier.h"
#include "core/strategy.h"
#include "crawl.h"
#include "webgraph/generator.h"
#include "workloads.h"

namespace crawlbench {

namespace {

using lswc::PageId;

constexpr uint32_t kPages = 4000;
constexpr uint64_t kSeed = 11;
constexpr uint32_t kK = 16;
constexpr const char* kScorers = "lang:1.0,parent:0.5,indegree:0.25";

/// Requires `clean` to pass and `doctored` to fail.
std::string Expect(const char* what, const std::string& clean,
                   const std::string& doctored) {
  if (!clean.empty()) return std::string(what) + " rejects a clean input: " + clean;
  if (doctored.empty()) {
    return std::string(what) + " accepts a doctored input";
  }
  return "";
}

lswc::Series PerturbRow(const lswc::Series& series, size_t row) {
  lswc::Series out(series.x_name(), {series.y_column(0).name,
                                     series.y_column(1).name,
                                     series.y_column(2).name});
  for (size_t i = 0; i < series.num_rows(); ++i) {
    std::vector<double> ys = {series.y(i, 0), series.y(i, 1), series.y(i, 2)};
    if (i == row) ys[2] += 1;
    out.AddRow(series.x(i), ys);
  }
  return out;
}

/// How many rounds RunRounds makes over 1 s of crawl time when each
/// round takes `round_ns` and attempts one operation, which fails if
/// `fail`. A loop that would spin is cut at 100 rounds.
int CountRounds(uint64_t round_ns, bool fail) {
  RunReport report;
  uint64_t crawl_ns = 0;
  int rounds = 0;
  RunRounds(1.0, &crawl_ns, &report, [&](int) {
    ++report.attempted;
    if (fail) ++report.failed;
    crawl_ns += ++rounds >= 100 ? 1'000'000'000 : round_ns;
  });
  return rounds;
}

}  // namespace

std::string SelfTestChecks() {
  auto built = lswc::GenerateWebGraph(lswc::ThaiLikeOptions(kPages, kSeed));
  if (!built.ok()) return "self-test graph: " + built.status().ToString();
  const lswc::WebGraph& graph = *built;
  const lswc::MetaTagClassifier classifier(graph.target_language());
  const lswc::SoftFocusedStrategy soft;
  const uint64_t total_relevant = CountRelevant(graph);
  const std::vector<uint8_t> reachable = ReachableFromSeeds(graph);

  lswc::InMemoryLinkDb link_db(&graph);
  CrawlConfig config;
  config.graph = &graph;
  config.link_db = &link_db;
  CrawlRecorder pop(graph.num_pages());
  CrawlProbes probes;
  probes.recorder = &pop;
  const CrawlResult crawl = RunCrawl(config, soft, classifier, probes);
  if (!crawl.status.ok()) return "self-test crawl: " + crawl.status.ToString();

  config.frontier_kind = "batch";
  config.batch_k = kK;
  config.scorers = kScorers;
  CrawlRecorder batch(graph.num_pages());
  std::vector<FrontierEvent> log;
  probes.recorder = &batch;
  probes.frontier_log = &log;
  const CrawlResult batch_crawl = RunCrawl(config, soft, classifier, probes);
  if (!batch_crawl.status.ok()) {
    return "self-test batch crawl: " + batch_crawl.status.ToString();
  }

  // A relevant fetch to drop or mislabel.
  const auto relevant_at = std::find_if(
      pop.flags.begin(), pop.flags.end(),
      [](uint8_t f) { return (f & kFetchTrulyRelevant) != 0; });
  if (relevant_at == pop.flags.end()) return "self-test crawl found nothing";
  const size_t relevant_index = relevant_at - pop.flags.begin();
  // A page with links, for the link check.
  PageId linked = 0;
  while (graph.outlinks(linked).size() < 2) ++linked;
  const std::span<const PageId> outlinks = graph.outlinks(linked);
  // Two pops inside the first selection round, to swap.
  std::vector<size_t> round0;
  for (size_t i = 0; i < log.size() && round0.size() < 2; ++i) {
    if (log[i].kind == FrontierEvent::kPush) continue;
    if (!round0.empty() && log[i].kind == FrontierEvent::kRoundStart) break;
    round0.push_back(i);
  }
  if (round0.size() < 2) return "self-test batch round selected one URL";

  std::vector<std::string> failures;
  auto expect = [&failures](const char* what, const std::string& clean,
                            const std::string& doctored) {
    std::string failure = Expect(what, clean, doctored);
    if (!failure.empty()) failures.push_back(std::move(failure));
  };

  std::vector<SampleRow> rows = pop.rows;
  rows[rows.size() / 2].relevant += 1;
  expect("series recount",
         CheckSeriesRecount(*crawl.series, pop.rows, total_relevant),
         CheckSeriesRecount(*crawl.series, rows, total_relevant));

  CrawlRecorder flipped = pop;
  flipped.flags[relevant_index] &= ~kFetchTrulyRelevant;
  expect("fetch flags", CheckFetchFlags(graph, pop),
         CheckFetchFlags(graph, flipped));

  std::vector<PageId> repeated = pop.fetched;
  repeated.push_back(repeated.front());
  expect("no repeat", CheckNoRepeat(graph.num_pages(), pop.fetched),
         CheckNoRepeat(graph.num_pages(), repeated));

  std::vector<PageId> dropped = pop.fetched;
  dropped.erase(dropped.begin() + static_cast<ptrdiff_t>(relevant_index));
  expect("crawled set", CheckCrawledSet(reachable, pop.fetched, true),
         CheckCrawledSet(reachable, dropped, true));
  expect("relevant in set",
         CheckRelevantInSet(graph, reachable, crawl.relevant),
         CheckRelevantInSet(graph, reachable, crawl.relevant - 1));

  expect("series equal", CheckSeriesEqual(*crawl.series, *crawl.series),
         CheckSeriesEqual(*crawl.series,
                          PerturbRow(*crawl.series, crawl.series->num_rows() / 2)));

  lswc::ConfusionCounts confusion = crawl.confusion;
  confusion.true_positive -= 1;
  confusion.false_negative += 1;
  expect("confusion", CheckConfusion(crawl.confusion, pop),
         CheckConfusion(confusion, pop));

  const std::vector<PageId> missing(outlinks.begin(), outlinks.end() - 1);
  expect("page links", CheckPageLinks(linked, outlinks, outlinks),
         CheckPageLinks(linked, missing, outlinks));

  std::vector<FrontierEvent> swapped = log;
  std::swap(swapped[round0[0]].url, swapped[round0[1]].url);
  expect("batch selections",
         CheckBatchSelections(graph, kScorers, kK, log, 1),
         CheckBatchSelections(graph, kScorers, kK, swapped, 1));

  if (CountRounds(400'000'000, false) != 3 ||
      CountRounds(5'000'000'000, false) != kMinRounds) {
    failures.push_back("round loop misjudges the crawl time");
  }
  if (CountRounds(0, true) != 1) {
    failures.push_back(
        "round loop goes on after a round in which every operation failed");
  }

  std::string all;
  for (const std::string& f : failures) all += (all.empty() ? "" : "; ") + f;
  return all;
}

}  // namespace crawlbench
