// The three workloads. Each builds its dataset from the run seed (the
// set-up, timed and repeated), then runs whole rounds of crawls (see
// RunRounds) until the crawls have taken the requested time, checking
// every crawl's output outside the timed region.

#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>

#include "checks.h"
#include "core/classifier.h"
#include "core/strategy.h"
#include "crawl.h"
#include "store/mmap_link_db.h"
#include "store/stored_web_graph.h"
#include "store/stream_generator.h"
#include "timing.h"
#include "util/sysinfo.h"
#include "webgraph/generator.h"

namespace crawlbench {

namespace {

using lswc::PageId;

// --- Workload make-up (README.md "Workloads" records the same) ---

/// trace-replay: the Japanese preset at paper-like scale, streamed to an
/// LSWCDS1 file and replayed from the mmap store.
constexpr uint32_t kTracePages = 2'000'000;
constexpr int kTraceSetupReps = 5;
/// Rolling snapshot cadence. Not a round number, so no crawl ends exactly
/// on a snapshot and the resume check always has a tail to replay; small
/// enough that even the hard-focused crawl (about 40% of the pages)
/// writes one.
constexpr uint64_t kSnapshotEvery = 400'009;
constexpr int kLimitN = 3;

/// byte-pipeline: both presets, full bytes, on the parallel engine.
/// A round (both crawls, to exhaustion) takes about 22 s, so a run at
/// --seconds 25 makes kMinRounds rounds and measures about 44 s. At
/// 100k pages a preset, peak RSS followed the seed's dataset (spread
/// 0.10 over ten seeds against 0.01-0.04 here).
constexpr uint32_t kBytePages = 200'000;
constexpr int kByteSetupReps = 9;
/// Two workers crawl nearly as fast as four (the serial commit path
/// bounds the rate), and a crawl that needs every core of a shared
/// machine follows its neighbours' load: with four, the crawl rate's
/// spread over ten runs was 0.35-0.40 (README.md "Dropped workloads").
constexpr unsigned kByteWorkers = 2;

/// batch-select: the Thai preset in the batch regime.
constexpr uint32_t kBatchPages = 100'000;
constexpr int kBatchSetupReps = 9;
constexpr uint32_t kBatchK = 16;
constexpr const char* kBatchScorers = "lang:1.0,parent:0.5,indegree:0.25";
/// Selection rounds compared by the batch check: every 32nd.
constexpr uint32_t kBatchCheckStride = 32;

constexpr double kNsPerS = 1e9;
constexpr double kMiB = 1024.0 * 1024.0;

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// What a run measures, summed over its crawls.
struct Measurements {
  std::vector<double> setup_s;
  std::vector<double> store_generate_s;
  std::vector<double> store_open_s;
  std::vector<double> webgraph_generate_s;
  uint64_t pages = 0;
  Interval crawl;
  LayerTotals layers;
  uint64_t scored_urls = 0;
  uint64_t selected_urls = 0;

  void Add(const CrawlResult& result) {
    pages += result.pages;
    crawl.wall_ns += result.time.wall_ns;
    crawl.cpu_ns += result.time.cpu_ns;
  }
};

/// Crawl rate and CPU per page are over all of the run's crawls.
std::vector<Metric> EndToEndMetrics(const Measurements& m) {
  const double pages = static_cast<double>(m.pages);
  return {
      {"setup_s", Median(m.setup_s), "s"},
      {"pages_per_s", Ratio(pages, m.crawl.wall_ns / kNsPerS), "pages/s"},
      {"cpu_us_per_page", Ratio(m.crawl.cpu_ns / 1e3, pages), "us/page"},
      {"peak_rss_mib", lswc::util::PeakRssBytes() / kMiB, "MiB"},
  };
}

/// Every per-layer metric, 0 where the workload does not run the layer
/// (README.md lists which layer runs where).
std::vector<Metric> PerLayerMetrics(const Measurements& m) {
  const LayerTotals& l = m.layers;
  const ByteLayerStats& b = l.bytes;
  const CallStats snapshot = l.snapshot.Both();
  const double pages = static_cast<double>(m.pages);
  const double self_ns =
      std::max(0.0, m.crawl.wall_ns - l.CrawlThreadDecoratedNs());
  return {
      {"store.generate_s", Median(m.store_generate_s), "s"},
      {"store.open_s", Median(m.store_open_s), "s"},
      {"store.outlinks_ns",
       l.outlinks.Both().calls != 0 ? l.outlinks.Both().MeanNs()
                                    : b.outlinks.MeanNs(),
       "ns/call"},
      {"webgraph.generate_s", Median(m.webgraph_generate_s), "s"},
      {"render.ns_per_page", b.render.MeanNs(), "ns"},
      {"classify.ns_per_page", l.classify.Both().MeanNs(), "ns"},
      {"charset.decode_ns_per_page",
       Ratio(b.decode.TotalNs(), static_cast<double>(b.render.calls)), "ns"},
      {"html.extract_ns_per_page", b.extract.MeanNs(), "ns"},
      {"url.resolve_ns_per_link", b.resolve.MeanNs(), "ns"},
      {"parallel.cpu_per_wall",
       Ratio(static_cast<double>(m.crawl.cpu_ns), m.crawl.wall_ns), "cores"},
      {"strategy.ns_per_link", l.strategy.Both().MeanNs(), "ns"},
      {"frontier.push_ns", l.push.Both().MeanNs(), "ns/call"},
      {"frontier.next_ns", l.next.Both().MeanNs(), "ns/call"},
      {"batch.refill_ms", l.refill.Both().MeanNs() / 1e6, "ms/round"},
      {"batch.scored_per_selected",
       Ratio(static_cast<double>(m.scored_urls), m.selected_urls), "URLs"},
      {"engine.self_ns_per_page", Ratio(self_ns, pages), "ns"},
      {"snapshot.write_ms", snapshot.MeanNs() / 1e6, "ms/snapshot"},
      {"snapshot.mib_per_s",
       Ratio(l.snapshot_bytes / kMiB, snapshot.TotalNs() / kNsPerS), "MiB/s"},
  };
}

/// Fills the report's metrics and totals from what the run measured.
void Finish(const RunArgs& args, Measurements& m, lswc::obs::RunObs& obs,
            RunReport* report) {
  report->pages = m.pages;
  report->crawl_wall_s = m.crawl.wall_ns / kNsPerS;
  report->crawl_cpu_s = m.crawl.cpu_ns / kNsPerS;
  if (!args.trace) {
    report->metrics = EndToEndMetrics(m);
    return;
  }
  m.scored_urls = obs.registry.counter("frontier.scored_urls")->value();
  m.selected_urls = obs.registry.counter("frontier.selected_urls")->value();
  report->metrics = PerLayerMetrics(m);
  // One line: the record is a single JSON line of the output.
  report->program_stats = obs.StatsJson();
  std::erase(report->program_stats, '\n');
}

uint64_t HashIds(const std::vector<PageId>& ids) {
  uint64_t h = 1469598103934665603ull;
  for (PageId id : ids) {
    h ^= id;
    h *= 1099511628211ull;
  }
  return h;
}

/// What the first round's checked crawl of an operation produced; later
/// rounds repeat the same crawl on the same dataset and must reproduce
/// it exactly (the program's determinism contract).
struct FirstRound {
  std::optional<lswc::Series> series;
  uint64_t fetch_hash = 0;
  lswc::ConfusionCounts confusion;
};

/// Checks one operation. The first failure is kept; a program error
/// counts the operation failed, a failed check also marks the run's
/// outputs incorrect.
class Operation {
 public:
  Operation(RunReport* report, std::string name)
      : report_(report), name_(std::move(name)) {
    ++report_->attempted;
  }
  ~Operation() {
    if (error_.empty()) return;
    ++report_->failed;
    report_->errors.push_back(name_ + ": " + error_);
    if (check_failed_) report_->correct = false;
  }
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  /// False (and the operation failed) when the program returned an error.
  bool Program(const lswc::Status& status) {
    if (status.ok() || !error_.empty()) return error_.empty();
    error_ = status.ToString();
    return false;
  }
  void Check(const std::string& error) {
    if (!error_.empty()) return;
    if (error.empty()) {
      ++report_->checks_passed;
      return;
    }
    error_ = error;
    check_failed_ = true;
  }

  /// Round 0 records the crawl; later rounds must repeat it exactly.
  void SameAsFirst(std::map<std::string, FirstRound>* first,
                   const CrawlResult& result, const CrawlRecorder& recorder) {
    FirstRound& expect = (*first)[name_];
    const uint64_t hash = HashIds(recorder.fetched);
    if (!expect.series.has_value()) {
      expect = FirstRound{result.series, hash, result.confusion};
      return;
    }
    Check(CheckSeriesEqual(*expect.series, *result.series));
    Check(hash == expect.fetch_hash ? ""
                                    : "fetch order differs from round 0");
    const lswc::ConfusionCounts& a = result.confusion;
    const lswc::ConfusionCounts& b = expect.confusion;
    Check(a.true_positive == b.true_positive &&
                  a.false_positive == b.false_positive &&
                  a.true_negative == b.true_negative &&
                  a.false_negative == b.false_negative
              ? ""
              : "confusion counts differ from round 0");
  }

 private:
  RunReport* report_;
  std::string name_;
  std::string error_;
  bool check_failed_ = false;
};

struct NamedStrategy {
  std::string name;
  std::unique_ptr<lswc::CrawlStrategy> strategy;
};

std::vector<NamedStrategy> PaperStrategies() {
  std::vector<NamedStrategy> s;
  s.push_back({"bfs", std::make_unique<lswc::BreadthFirstStrategy>()});
  s.push_back({"hard", std::make_unique<lswc::HardFocusedStrategy>()});
  s.push_back({"soft", std::make_unique<lswc::SoftFocusedStrategy>()});
  s.push_back({"limited:" + std::to_string(kLimitN),
               std::make_unique<lswc::LimitedDistanceStrategy>(kLimitN,
                                                               false)});
  s.push_back({"plimited:" + std::to_string(kLimitN),
               std::make_unique<lswc::LimitedDistanceStrategy>(kLimitN,
                                                               true)});
  return s;
}

/// Checks every crawl shares: the series recount, the events' ground
/// truth, no repeats, reachability and the confusion recount.
void CommonChecks(Operation* op, const lswc::WebGraph& graph,
                  const std::vector<uint8_t>& reachable,
                  uint64_t total_relevant, const CrawlResult& result,
                  const CrawlRecorder& recorder, bool whole_reachable_set) {
  op->Check(CheckSeriesRecount(*result.series, recorder.rows, total_relevant));
  op->Check(CheckFetchFlags(graph, recorder));
  op->Check(CheckNoRepeat(graph.num_pages(), recorder.fetched));
  op->Check(CheckCrawledSet(reachable, recorder.fetched, whole_reachable_set));
  if (whole_reachable_set) {
    op->Check(CheckRelevantInSet(graph, reachable, result.relevant));
    op->Check(CheckRelevantInSet(graph, reachable, recorder.relevant));
  }
  op->Check(CheckConfusion(result.confusion, recorder));
}

// --- trace-replay ---

lswc::StatusOr<RunReport> RunTraceReplay(const RunArgs& args) {
  RunReport report;
  Measurements m;
  const std::string path = args.workdir + "/japanese.lswcds";
  std::unique_ptr<lswc::store::StoredWebGraph> stored;
  for (int rep = 0; rep < kTraceSetupReps; ++rep) {
    stored.reset();
    const uint64_t start = NowNs();
    LSWC_RETURN_IF_ERROR(lswc::store::GenerateWebGraphToFile(
        lswc::JapaneseLikeOptions(kTracePages, args.seed), path));
    const uint64_t generated = NowNs();
    auto opened = lswc::store::StoredWebGraph::Open(path);
    const uint64_t end = NowNs();
    if (!opened.ok()) return opened.status();
    stored = std::move(opened).value();
    m.store_generate_s.push_back((generated - start) / kNsPerS);
    m.store_open_s.push_back((end - generated) / kNsPerS);
    m.setup_s.push_back((end - start) / kNsPerS);
  }
  const lswc::WebGraph& graph = stored->graph();
  report.dataset = "japanese";
  report.dataset_pages = graph.num_pages();
  const uint64_t total_relevant = CountRelevant(graph);
  const std::vector<uint8_t> reachable = ReachableFromSeeds(graph);
  const lswc::MetaTagClassifier classifier(graph.target_language());
  const std::vector<NamedStrategy> strategies = PaperStrategies();
  lswc::obs::RunObs obs;
  std::map<std::string, FirstRound> first;
  RunRounds(args.seconds, &m.crawl.wall_ns, &report, [&](int round) {
    for (const NamedStrategy& s : strategies) {
      Operation op(&report, s.name);
      const std::string snapshot =
          args.workdir + "/" + s.name.substr(0, s.name.find(':')) + ".snap";
      std::filesystem::remove(snapshot);
      CrawlRecorder recorder(graph.num_pages());
      lswc::store::MmapLinkDb link_db(*stored);
      CrawlConfig config;
      config.graph = &graph;
      config.link_db = &link_db;
      config.dataset_file = path;
      config.checkpoint_every = kSnapshotEvery;
      config.snapshot_path = snapshot;
      CrawlProbes probes;
      probes.recorder = &recorder;
      if (args.trace) {
        probes.layers = &m.layers;
        probes.obs = &obs;
      }
      const CrawlResult result =
          RunCrawl(config, *s.strategy, classifier, probes);
      m.Add(result);
      if (!op.Program(result.status)) continue;
      const bool whole = s.name == "bfs" || s.name == "soft";
      CommonChecks(&op, graph, reachable, total_relevant, result, recorder,
                   whole);
      if (round == 0) {
        // Resume from the last rolling snapshot and finish the crawl.
        if (!std::filesystem::exists(snapshot)) {
          op.Check("no snapshot was written");
          continue;
        }
        lswc::store::MmapLinkDb resume_link_db(*stored);
        config.link_db = &resume_link_db;
        config.checkpoint_every = 0;
        config.resume_path = snapshot;
        const CrawlResult resumed =
            RunCrawl(config, *s.strategy, classifier, CrawlProbes{});
        if (!op.Program(resumed.status)) continue;
        op.Check(CheckSeriesEqual(*result.series, *resumed.series));
      }
      op.SameAsFirst(&first, result, recorder);
    }
  });
  Finish(args, m, obs, &report);
  return report;
}

// --- byte-pipeline ---

struct Dataset {
  std::string name;
  lswc::WebGraph graph;
  uint64_t total_relevant = 0;
  std::vector<uint8_t> reachable;
};

lswc::StatusOr<RunReport> RunBytePipeline(const RunArgs& args) {
  RunReport report;
  Measurements m;
  std::vector<Dataset> datasets;
  for (int rep = 0; rep < kByteSetupReps; ++rep) {
    datasets.clear();
    const uint64_t start = NowNs();
    for (const bool thai : {true, false}) {
      auto graph = lswc::GenerateWebGraph(
          thai ? lswc::ThaiLikeOptions(kBytePages, args.seed)
               : lswc::JapaneseLikeOptions(kBytePages, args.seed));
      if (!graph.ok()) return graph.status();
      datasets.push_back(
          Dataset{thai ? "thai" : "japanese", std::move(graph).value(), 0, {}});
    }
    const double seconds = (NowNs() - start) / kNsPerS;
    m.setup_s.push_back(seconds);
    m.webgraph_generate_s.push_back(seconds);
  }
  for (Dataset& d : datasets) {
    d.total_relevant = CountRelevant(d.graph);
    d.reachable = ReachableFromSeeds(d.graph);
  }
  report.dataset = "thai+japanese";
  report.dataset_pages = 2ull * kBytePages;
  report.workers = std::min(kByteWorkers, args.nproc);
  const lswc::LimitedDistanceStrategy strategy(kLimitN, /*prioritized=*/true);
  lswc::obs::RunObs obs;
  std::map<std::string, FirstRound> first;
  RunRounds(args.seconds, &m.crawl.wall_ns, &report, [&](int round) {
    for (const Dataset& d : datasets) {
      Operation op(&report, d.name + "/plimited:" + std::to_string(kLimitN));
      const lswc::DetectorClassifier classifier(d.graph.target_language());
      CrawlRecorder recorder(d.graph.num_pages());
      CrawlConfig config;
      config.graph = &d.graph;
      config.render = lswc::RenderMode::kFull;
      config.parse_html = true;
      config.workers = report.workers;
      CrawlProbes probes;
      probes.recorder = &recorder;
      if (args.trace) {
        probes.layers = &m.layers;
        probes.obs = &obs;
      }
      const CrawlResult result = RunCrawl(config, strategy, classifier, probes);
      m.Add(result);
      if (!op.Program(result.status)) continue;
      CommonChecks(&op, d.graph, d.reachable, d.total_relevant, result,
                   recorder, /*whole_reachable_set=*/false);
      if (round == 0) {
        // Timed replays run alone on one thread; checking-only replays
        // use the crawl's worker count. More threads would add malloc
        // arenas of their own to the peak RSS the run reports: with four,
        // it spread 0.15-0.25 over ten runs instead of 0.03-0.04.
        const ByteReplay replay = ReplayBytes(
            d.graph, classifier, recorder, args.trace ? 1 : report.workers);
        op.Check(replay.error);
        if (args.trace) m.layers.bytes.Merge(replay.stats);
      }
      op.SameAsFirst(&first, result, recorder);
    }
  });
  Finish(args, m, obs, &report);
  return report;
}

// --- batch-select ---

lswc::StatusOr<RunReport> RunBatchSelect(const RunArgs& args) {
  RunReport report;
  Measurements m;
  std::optional<lswc::WebGraph> graph_or;
  for (int rep = 0; rep < kBatchSetupReps; ++rep) {
    graph_or.reset();
    const uint64_t start = NowNs();
    auto graph = lswc::GenerateWebGraph(
        lswc::ThaiLikeOptions(kBatchPages, args.seed));
    const double seconds = (NowNs() - start) / kNsPerS;
    if (!graph.ok()) return graph.status();
    graph_or = std::move(graph).value();
    m.setup_s.push_back(seconds);
    m.webgraph_generate_s.push_back(seconds);
  }
  const lswc::WebGraph& graph = *graph_or;
  report.dataset = "thai";
  report.dataset_pages = graph.num_pages();
  const uint64_t total_relevant = CountRelevant(graph);
  const std::vector<uint8_t> reachable = ReachableFromSeeds(graph);
  const lswc::MetaTagClassifier classifier(graph.target_language());
  const lswc::SoftFocusedStrategy strategy;
  lswc::obs::RunObs obs;
  std::map<std::string, FirstRound> first;
  RunRounds(args.seconds, &m.crawl.wall_ns, &report, [&](int) {
    Operation op(&report, "soft/batch-k" + std::to_string(kBatchK));
    std::vector<FrontierEvent> log;
    log.reserve(4 * graph.num_pages());
    CrawlRecorder recorder(graph.num_pages());
    lswc::InMemoryLinkDb link_db(&graph);
    CrawlConfig config;
    config.graph = &graph;
    config.link_db = &link_db;
    config.frontier_kind = "batch";
    config.batch_k = kBatchK;
    config.scorers = kBatchScorers;
    CrawlProbes probes;
    probes.recorder = &recorder;
    probes.frontier_log = &log;
    if (args.trace) {
      probes.layers = &m.layers;
      probes.obs = &obs;
    }
    const CrawlResult result = RunCrawl(config, strategy, classifier, probes);
    m.Add(result);
    if (!op.Program(result.status)) return;
    CommonChecks(&op, graph, reachable, total_relevant, result, recorder,
                 /*whole_reachable_set=*/true);
    op.Check(CheckBatchSelections(graph, kBatchScorers, kBatchK, log,
                                  kBatchCheckStride));
    op.SameAsFirst(&first, result, recorder);
  });
  Finish(args, m, obs, &report);
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"trace-replay",
                                                 "byte-pipeline",
                                                 "batch-select"};
  return names;
}

lswc::StatusOr<RunReport> RunWorkload(const RunArgs& args) {
  if (args.workload == "trace-replay") return RunTraceReplay(args);
  if (args.workload == "byte-pipeline") return RunBytePipeline(args);
  if (args.workload == "batch-select") return RunBatchSelect(args);
  return lswc::Status::InvalidArgument("unknown workload " + args.workload);
}

}  // namespace crawlbench
