#ifndef CRAWLBENCH_RECORD_H_
#define CRAWLBENCH_RECORD_H_
// What the benchmark records about a crawl while it runs, for the output
// checks to examine afterwards. Recording is append-only and cheap, so it
// stays on in the untraced runs whose end-to-end figures it sits inside.

#include <cstdint>
#include <vector>

#include "core/crawl_observer.h"
#include "webgraph/page.h"

namespace crawlbench {

/// One sampling point, recounted from the fetch events seen so far.
struct SampleRow {
  uint64_t pages = 0;
  uint64_t relevant = 0;  // Fetches whose event said truly_relevant.
  uint64_t frontier = 0;
};

/// Bits of FetchRecord::flags.
inline constexpr uint8_t kFetchOk = 1;
inline constexpr uint8_t kFetchTrulyRelevant = 2;
inline constexpr uint8_t kFetchJudgedRelevant = 4;

/// The benchmark's own observer on the engine's event bus: the fetch
/// order with each event's flags, and the series rows recounted from the
/// events' ground-truth fields.
class CrawlRecorder final : public lswc::CrawlObserver {
 public:
  explicit CrawlRecorder(size_t expected_pages) {
    fetched.reserve(expected_pages);
    flags.reserve(expected_pages);
  }

  void OnFetch(const lswc::FetchEvent& event) override {
    fetched.push_back(event.url);
    flags.push_back(static_cast<uint8_t>(
        (event.ok ? kFetchOk : 0) |
        (event.truly_relevant ? kFetchTrulyRelevant : 0) |
        (event.judged_relevant ? kFetchJudgedRelevant : 0)));
    if (event.truly_relevant) ++relevant;
  }
  void OnSample(const lswc::SampleEvent& event) override {
    rows.push_back(SampleRow{event.pages_crawled, relevant,
                             event.frontier_size});
  }

  std::vector<lswc::PageId> fetched;
  std::vector<uint8_t> flags;  // Parallel to `fetched`.
  std::vector<SampleRow> rows;
  uint64_t relevant = 0;
};

/// One call into the frontier port, logged by TimedScheduler for the
/// batch-selection check: pushes with their full score context, and pops,
/// with the pop that started a new selection round marked.
struct FrontierEvent {
  enum Kind : uint8_t { kPush, kPop, kRoundStart };
  Kind kind = kPush;
  uint8_t annotation = 0;
  bool parent_relevant = true;
  int32_t priority = 0;
  lswc::PageId url = 0;
  double parent_confidence = 1.0;
};

}  // namespace crawlbench

#endif  // CRAWLBENCH_RECORD_H_
