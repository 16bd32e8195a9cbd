#ifndef CRAWLBENCH_DECORATORS_H_
#define CRAWLBENCH_DECORATORS_H_
// Timing decorators for the program's pluggable seams: each forwards
// every call to the real implementation and times a sample of them. The
// crawl is wired with these only in the traced run (the frontier one
// also logs for the batch check, and the checkpoint one is always on:
// it fires a few times per crawl). Decorators change no decision, so a
// decorated crawl produces the same output as a bare one.

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_frontier.h"
#include "core/checkpoint.h"
#include "core/classifier.h"
#include "core/crawl_engine.h"
#include "core/strategy.h"
#include "record.h"
#include "timing.h"
#include "webgraph/link_db.h"

namespace crawlbench {

/// Where a decorated classifier and all its clones leave their counts.
/// Clones live on the parallel engine's workers and die with it; each
/// merges here on destruction.
class StatsSink {
 public:
  void Merge(const SplitStats& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.Merge(stats);
  }
  SplitStats Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  std::mutex mu_;
  SplitStats stats_;
};

/// Classifier::Judge, cloned per worker where the engine clones.
class TimedClassifier final : public lswc::Classifier {
 public:
  TimedClassifier(std::unique_ptr<lswc::Classifier> inner,
                  std::shared_ptr<StatsSink> sink)
      : inner_(std::move(inner)), sink_(std::move(sink)) {}
  ~TimedClassifier() override { sink_->Merge(stats_); }
  TimedClassifier(const TimedClassifier&) = delete;
  TimedClassifier& operator=(const TimedClassifier&) = delete;

  lswc::RelevanceJudgment Judge(const lswc::FetchResponse& response) override {
    Probe probe(&stats_.Current(), kSampleMask);
    return inner_->Judge(response);
  }
  lswc::Language target_language() const override {
    return inner_->target_language();
  }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<lswc::Classifier> Clone() const override {
    std::unique_ptr<lswc::Classifier> clone = inner_->Clone();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TimedClassifier>(std::move(clone), sink_);
  }

 private:
  std::unique_ptr<lswc::Classifier> inner_;
  std::shared_ptr<StatsSink> sink_;
  SplitStats stats_;
};

/// CrawlStrategy::OnLink. Both engines call it from their serial commit
/// loop only, so the mutable counts are never shared between threads.
class TimedStrategy final : public lswc::CrawlStrategy {
 public:
  explicit TimedStrategy(const lswc::CrawlStrategy* inner) : inner_(inner) {}

  lswc::LinkDecision OnLink(const lswc::ParentInfo& parent,
                            lswc::PageId child) const override {
    Probe probe(&stats_.Current(), kSampleMask);
    return inner_->OnLink(parent, child);
  }
  int seed_priority() const override { return inner_->seed_priority(); }
  int num_priority_levels() const override {
    return inner_->num_priority_levels();
  }
  std::string name() const override { return inner_->name(); }

  const SplitStats& stats() const { return stats_; }

 private:
  const lswc::CrawlStrategy* inner_;
  mutable SplitStats stats_;
};

/// LinkDb::GetOutlinks.
class TimedLinkDb final : public lswc::LinkDb {
 public:
  explicit TimedLinkDb(lswc::LinkDb* inner) : inner_(inner) {}

  lswc::Status GetOutlinks(lswc::PageId id,
                           std::vector<lswc::PageId>* out) override {
    Probe probe(&stats_.Current(), kSampleMask);
    return inner_->GetOutlinks(id, out);
  }
  size_t num_pages() const override { return inner_->num_pages(); }
  void AttachObs(lswc::obs::MetricsRegistry* registry) override {
    inner_->AttachObs(registry);
  }

  const SplitStats& stats() const { return stats_; }

 private:
  lswc::LinkDb* inner_;
  SplitStats stats_;
};

/// FrontierScheduler: Push/PushScored and Next. In the batch regime a
/// Next that finds the current batch empty starts a new selection round;
/// those calls are timed apart (every one, they are rare) as refills.
/// With a log attached, every push and pop is appended to it.
class TimedScheduler final : public lswc::FrontierScheduler {
 public:
  /// `batch` (may be null) is the frontier behind `inner` when it is a
  /// BatchFrontier; `log` (may be null) receives every push and pop.
  TimedScheduler(lswc::FrontierScheduler* inner, bool timing,
                 const lswc::BatchFrontier* batch,
                 std::vector<FrontierEvent>* log)
      : inner_(inner), timing_(timing), batch_(batch), log_(log) {}

  void Push(lswc::PageId url, int priority) override {
    PushScored(url, priority, lswc::PushContext{});
  }
  void PushScored(lswc::PageId url, int priority,
                  const lswc::PushContext& context) override {
    if (log_ != nullptr) {
      log_->push_back(FrontierEvent{FrontierEvent::kPush, context.annotation,
                                    context.parent_relevant, priority, url,
                                    context.parent_confidence});
    }
    if (!timing_) {
      inner_->PushScored(url, priority, context);
      return;
    }
    Probe probe(&push_.Current(), kSampleMask);
    inner_->PushScored(url, priority, context);
  }

  std::optional<lswc::PageId> Next(const lswc::CrawlState& state) override {
    const bool round_start = batch_ != nullptr && batch_->batch_size() == 0;
    std::optional<lswc::PageId> next;
    if (!timing_) {
      next = inner_->Next(state);
    } else if (round_start) {
      Probe probe(&refill_.Current(), /*mask=*/0);
      next = inner_->Next(state);
    } else {
      Probe probe(&next_.Current(), kSampleMask);
      next = inner_->Next(state);
    }
    if (log_ != nullptr && next.has_value()) {
      FrontierEvent event;
      event.kind = round_start ? FrontierEvent::kRoundStart
                               : FrontierEvent::kPop;
      event.url = *next;
      log_->push_back(event);
    }
    return next;
  }

  size_t size() const override { return inner_->size(); }
  bool StopRequested() const override { return inner_->StopRequested(); }
  std::string SnapshotKind() const override { return inner_->SnapshotKind(); }
  lswc::Status SaveState(lswc::snapshot::SectionWriter* w) const override {
    return inner_->SaveState(w);
  }
  lswc::Status RestoreState(lswc::snapshot::SectionReader* r) override {
    return inner_->RestoreState(r);
  }

  const SplitStats& push_stats() const { return push_; }
  const SplitStats& next_stats() const { return next_; }
  const SplitStats& refill_stats() const { return refill_; }

 private:
  lswc::FrontierScheduler* inner_;
  bool timing_;
  const lswc::BatchFrontier* batch_;
  std::vector<FrontierEvent>* log_;
  SplitStats push_;
  SplitStats next_;
  SplitStats refill_;
};

/// Checkpointable::SaveSnapshot, every call timed, bytes summed.
class TimedCheckpointable final : public lswc::Checkpointable {
 public:
  explicit TimedCheckpointable(const lswc::Checkpointable* inner)
      : inner_(inner) {}

  lswc::Status SaveSnapshot(const std::string& path,
                            uint64_t* bytes_written) const override {
    uint64_t bytes = 0;
    lswc::Status status;
    {
      Probe probe(&stats_.Current(), /*mask=*/0);
      status = inner_->SaveSnapshot(path, &bytes);
    }
    bytes_ += bytes;
    if (bytes_written != nullptr) *bytes_written = bytes;
    return status;
  }
  uint64_t pages_crawled() const override { return inner_->pages_crawled(); }
  uint64_t sample_interval() const override {
    return inner_->sample_interval();
  }

  const SplitStats& stats() const { return stats_; }
  uint64_t bytes() const { return bytes_; }

 private:
  const lswc::Checkpointable* inner_;
  mutable SplitStats stats_;
  mutable uint64_t bytes_ = 0;
};

}  // namespace crawlbench

#endif  // CRAWLBENCH_DECORATORS_H_
