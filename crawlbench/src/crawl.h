#ifndef CRAWLBENCH_CRAWL_H_
#define CRAWLBENCH_CRAWL_H_
// One crawl, wired the way the program's own drivers wire it: the serial
// path builds a CrawlEngine over MakeFrontier's frontier as Simulator
// does (so the frontier port can be decorated), and the parallel path
// calls Simulator with `shards` set. Timing decorators go in only when
// the run is traced.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bytes.h"
#include "core/classifier.h"
#include "core/metrics.h"
#include "core/strategy.h"
#include "core/virtual_web.h"
#include "obs/run_obs.h"
#include "record.h"
#include "timing.h"
#include "util/series.h"
#include "util/status.h"
#include "webgraph/graph.h"
#include "webgraph/link_db.h"

namespace crawlbench {

/// Per-layer counts summed over every crawl of a run.
struct LayerTotals {
  SplitStats classify;
  SplitStats strategy;
  SplitStats outlinks;
  SplitStats push;
  SplitStats next;
  SplitStats refill;
  SplitStats snapshot;
  uint64_t snapshot_bytes = 0;
  /// Byte layers, from the replay of each distinct crawl's fetch order.
  ByteLayerStats bytes;

  /// Time the crawl thread spent inside decorated calls (extrapolated
  /// from the sampled calls).
  double CrawlThreadDecoratedNs() const;
};

/// What a crawl runs on and how it is configured.
struct CrawlConfig {
  const lswc::WebGraph* graph = nullptr;
  /// Serial path only; the parallel engine builds per-shard link
  /// databases of its own.
  lswc::LinkDb* link_db = nullptr;
  lswc::RenderMode render = lswc::RenderMode::kNone;
  bool parse_html = false;
  /// 0 = the serial CrawlEngine; N >= 1 = the parallel engine.
  uint32_t workers = 0;
  /// Identity only (recorded in snapshot fingerprints).
  std::string dataset_file;
  /// "" = pop order, "batch" = batch selection with `batch_k`/`scorers`.
  std::string frontier_kind;
  uint32_t batch_k = 0;
  std::string scorers;
  /// Rolling snapshot every N pages to `snapshot_path` (0 = none).
  uint64_t checkpoint_every = 0;
  std::string snapshot_path;
  /// Resume from this snapshot instead of seeding (serial path).
  std::string resume_path;
};

/// What the benchmark attaches to a crawl; every field is optional.
struct CrawlProbes {
  /// Wrap the seams in timing decorators and add their counts here.
  LayerTotals* layers = nullptr;
  CrawlRecorder* recorder = nullptr;
  std::vector<FrontierEvent>* frontier_log = nullptr;
  lswc::obs::RunObs* obs = nullptr;
};

struct CrawlResult {
  lswc::Status status;
  std::optional<lswc::Series> series;
  uint64_t pages = 0;
  uint64_t relevant = 0;
  lswc::ConfusionCounts confusion;
  /// Wall and process CPU from wiring the crawl to the end of Run().
  Interval time;
};

/// Runs one crawl. `classifier` is a prototype: the crawl judges with a
/// clone of its own.
CrawlResult RunCrawl(const CrawlConfig& config,
                     const lswc::CrawlStrategy& strategy,
                     const lswc::Classifier& classifier,
                     const CrawlProbes& probes);

}  // namespace crawlbench

#endif  // CRAWLBENCH_CRAWL_H_
