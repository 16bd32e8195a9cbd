#ifndef CRAWLBENCH_CHECKS_H_
#define CRAWLBENCH_CHECKS_H_
// Output checks. Each one compares what the program produced against a
// computation made here, apart from the program (a BFS of our own, a
// recount from the fetch events, ground truth read from the dataset's
// page records, a rescore through the public scorer factory), or
// against a property the method must have. None compares against a
// stored copy of an earlier output. Every check returns "" on success
// and a one-line description of the first discrepancy otherwise.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "record.h"
#include "util/series.h"
#include "webgraph/graph.h"

namespace crawlbench {

/// Ground truth from the dataset's page record: an OK page written in
/// the dataset's target language.
bool TrulyRelevant(const lswc::WebGraph& graph, lswc::PageId page);

/// Target-language OK pages in the whole dataset (the coverage base).
uint64_t CountRelevant(const lswc::WebGraph& graph);

/// Our own breadth-first search: the pages a crawler that follows every
/// link of every OK page reaches from the dataset's seeds (1 = reached).
std::vector<uint8_t> ReachableFromSeeds(const lswc::WebGraph& graph);

/// The program's harvest/coverage/queue-size series equals the one
/// recounted from the fetch and sample events, row for row and bit for
/// bit (same formula: 100 * relevant / pages, 100 * relevant / total).
std::string CheckSeriesRecount(const lswc::Series& program,
                               std::span<const SampleRow> rows,
                               uint64_t total_relevant);

/// Every fetch event's ok and truly_relevant fields agree with the
/// dataset's page records.
std::string CheckFetchFlags(const lswc::WebGraph& graph,
                            const CrawlRecorder& record);

/// No URL was fetched twice.
std::string CheckNoRepeat(size_t num_pages,
                          std::span<const lswc::PageId> fetched);

/// Every fetched page is in `reachable`; with `exact`, the fetched set
/// is the whole reachable set. Assumes CheckNoRepeat passed.
std::string CheckCrawledSet(std::span<const uint8_t> reachable,
                            std::span<const lswc::PageId> fetched,
                            bool exact);

/// `relevant_crawled` (as the program reports it) equals the number of
/// truly relevant pages in `reachable`.
std::string CheckRelevantInSet(const lswc::WebGraph& graph,
                               std::span<const uint8_t> reachable,
                               uint64_t relevant_crawled);

/// Two series are identical (a resumed crawl against its straight run).
std::string CheckSeriesEqual(const lswc::Series& expected,
                             const lswc::Series& actual);

/// The program's confusion counts equal a recount of judged versus true
/// relevance over the recorded OK fetches.
std::string CheckConfusion(const lswc::ConfusionCounts& program,
                           const CrawlRecorder& record);

/// The links the HTML of `page` resolved to equal the link database's
/// outlinks of that page, in order.
std::string CheckPageLinks(lswc::PageId page,
                           std::span<const lswc::PageId> parsed,
                           std::span<const lswc::PageId> outlinks);

/// Replays the logged frontier calls of a batch-regime crawl through our
/// own record of the pending set (a re-push updates the score context and
/// keeps the URL's push order; pushes for URLs of the current round are
/// ignored), and on every `stride`-th selection round requires the URLs
/// the round selected to be the `k` best pending URLs by (score desc,
/// push order asc), scored through MakeCompositeScorer(`spec`).
/// `rounds_checked` (optional) receives the number of rounds compared.
std::string CheckBatchSelections(const lswc::WebGraph& graph,
                                 const std::string& spec, uint32_t k,
                                 std::span<const FrontierEvent> log,
                                 uint32_t stride,
                                 uint64_t* rounds_checked = nullptr);

}  // namespace crawlbench

#endif  // CRAWLBENCH_CHECKS_H_
