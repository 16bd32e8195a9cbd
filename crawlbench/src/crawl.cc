#include "crawl.h"

#include <memory>

#include "core/batch_frontier.h"
#include "core/checkpoint.h"
#include "core/crawl_engine.h"
#include "core/frontier_factory.h"
#include "core/simulator.h"
#include "decorators.h"

namespace crawlbench {

double LayerTotals::CrawlThreadDecoratedNs() const {
  return classify.crawl_thread.TotalNs() + strategy.crawl_thread.TotalNs() +
         outlinks.crawl_thread.TotalNs() + push.crawl_thread.TotalNs() +
         next.crawl_thread.TotalNs() + refill.crawl_thread.TotalNs() +
         snapshot.crawl_thread.TotalNs();
}

namespace {

void Fill(const lswc::MetricsRecorder& metrics, CrawlResult* result) {
  result->series = metrics.series();
  result->pages = metrics.pages_crawled();
  result->relevant = metrics.relevant_crawled();
  result->confusion = metrics.confusion();
}

/// The serial path: Simulator::Run's wiring, with the frontier port,
/// link database and snapshot writer reachable for decoration.
CrawlResult RunSerial(const CrawlConfig& config,
                      const lswc::CrawlStrategy& strategy,
                      lswc::Classifier* classifier,
                      const CrawlProbes& probes) {
  CrawlResult result;
  const bool timing = probes.layers != nullptr;
  const bool batch = config.frontier_kind == "batch";
  const Stopwatch stopwatch;
  TimedLinkDb timed_link_db(config.link_db);
  lswc::VirtualWebSpace web(config.graph,
                            timing ? &timed_link_db : config.link_db,
                            config.render);
  lswc::FrontierOptions frontier_options;
  frontier_options.kind = config.frontier_kind;
  frontier_options.batch_k = config.batch_k;
  frontier_options.scorers = config.scorers;
  frontier_options.scorer_seed = config.graph->generator_seed();
  frontier_options.graph = config.graph;
  auto selection = lswc::MakeFrontier(strategy, frontier_options);
  if (!selection.ok()) {
    result.status = selection.status();
    return result;
  }
  lswc::FrontierPopScheduler pop(selection->frontier.get());
  TimedScheduler timed_scheduler(&pop, timing, selection->batch,
                                 probes.frontier_log);
  const bool wrap_scheduler = timing || probes.frontier_log != nullptr;

  lswc::CrawlEngineOptions options;
  options.parse_html = config.parse_html;
  options.obs = probes.obs;
  options.dataset_file = config.dataset_file;
  if (batch) {
    options.batch_k = config.batch_k == 0 ? lswc::kDefaultBatchK
                                          : config.batch_k;
    options.scorer_spec =
        config.scorers.empty() ? lswc::kDefaultScorerSpec : config.scorers;
  }
  lswc::CrawlEngine engine(
      &web, classifier, &strategy,
      wrap_scheduler ? static_cast<lswc::FrontierScheduler*>(&timed_scheduler)
                     : &pop,
      options);
  if (probes.obs != nullptr) {
    selection->frontier->AttachObs(&probes.obs->registry, nullptr);
    if (selection->batch != nullptr) {
      selection->batch->set_profiler(&probes.obs->profiler);
    }
  }
  if (probes.recorder != nullptr) engine.AddObserver(probes.recorder);
  TimedCheckpointable checkpointable(&engine);
  std::unique_ptr<lswc::CheckpointObserver> checkpoint;
  if (config.checkpoint_every != 0) {
    checkpoint = std::make_unique<lswc::CheckpointObserver>(
        &checkpointable, config.checkpoint_every, config.snapshot_path);
    engine.AddObserver(checkpoint.get());
  }
  if (!config.resume_path.empty()) {
    result.status = engine.ResumeFromSnapshot(config.resume_path);
  }
  if (result.status.ok()) result.status = engine.Run();
  if (result.status.ok() && checkpoint != nullptr) {
    result.status = checkpoint->status();
  }
  result.time = stopwatch.Stop();
  Fill(engine.metrics(), &result);
  if (timing) {
    LayerTotals& layers = *probes.layers;
    layers.outlinks.Merge(timed_link_db.stats());
    layers.push.Merge(timed_scheduler.push_stats());
    layers.next.Merge(timed_scheduler.next_stats());
    layers.refill.Merge(timed_scheduler.refill_stats());
    layers.snapshot.Merge(checkpointable.stats());
    layers.snapshot_bytes += checkpointable.bytes();
  }
  return result;
}

/// The parallel path: Simulator with `shards` workers.
CrawlResult RunParallel(const CrawlConfig& config,
                        const lswc::CrawlStrategy& strategy,
                        lswc::Classifier* classifier,
                        const CrawlProbes& probes) {
  CrawlResult result;
  const Stopwatch stopwatch;
  lswc::InMemoryLinkDb link_db(config.graph);
  lswc::VirtualWebSpace web(config.graph, &link_db, config.render);
  lswc::SimulationOptions options;
  options.parse_html = config.parse_html;
  options.shards = config.workers;
  options.frontier_kind = config.frontier_kind;
  options.batch_k = config.batch_k;
  options.scorers = config.scorers;
  options.dataset_file = config.dataset_file;
  options.obs = probes.obs;
  if (probes.recorder != nullptr) options.observers.push_back(probes.recorder);
  lswc::Simulator simulator(&web, classifier, &strategy, options);
  auto run = simulator.Run();
  result.time = stopwatch.Stop();
  if (!run.ok()) {
    result.status = run.status();
    return result;
  }
  result.series = run->series;
  result.pages = run->summary.pages_crawled;
  result.relevant = run->summary.relevant_crawled;
  result.confusion = run->summary.classifier_confusion;
  return result;
}

}  // namespace

CrawlResult RunCrawl(const CrawlConfig& config,
                     const lswc::CrawlStrategy& strategy,
                     const lswc::Classifier& classifier,
                     const CrawlProbes& probes) {
  std::unique_ptr<lswc::Classifier> judge = classifier.Clone();
  if (judge == nullptr) {
    CrawlResult result;
    result.status = lswc::Status::InvalidArgument("classifier cannot clone");
    return result;
  }
  const bool timing = probes.layers != nullptr;
  auto classify_sink = std::make_shared<StatsSink>();
  if (timing) {
    judge = std::make_unique<TimedClassifier>(std::move(judge), classify_sink);
  }
  TimedStrategy timed_strategy(&strategy);
  const lswc::CrawlStrategy& crawl_strategy =
      timing ? static_cast<const lswc::CrawlStrategy&>(timed_strategy)
             : strategy;
  CrawlResult result =
      config.workers == 0
          ? RunSerial(config, crawl_strategy, judge.get(), probes)
          : RunParallel(config, crawl_strategy, judge.get(), probes);
  if (timing) {
    judge.reset();  // Merges the prototype's counts; clones died with the engine.
    probes.layers->classify.Merge(classify_sink->Get());
    probes.layers->strategy.Merge(timed_strategy.stats());
  }
  return result;
}

}  // namespace crawlbench
