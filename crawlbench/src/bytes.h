#ifndef CRAWLBENCH_BYTES_H_
#define CRAWLBENCH_BYTES_H_
// The byte layers run inside the program's Visitor, out of reach of a
// decorator. The benchmark therefore replays a crawl's fetched page
// sequence through their public functions: RenderPageBody, the
// classifier, DecodeText + EncodeUtf8, ExtractLinks and
// WebGraph::ResolveUrl, with the link database beside them. The same
// replay is the byte-pipeline output check: every page's HTML links
// must resolve to its link-database outlinks, and every judgment must
// equal the one the crawl reported.

#include <string>

#include "core/classifier.h"
#include "record.h"
#include "timing.h"
#include "webgraph/graph.h"

namespace crawlbench {

/// Calls into each byte layer over one replay.
struct ByteLayerStats {
  CallStats render;    // RenderPageBody, per page.
  CallStats classify;  // Classifier::Judge, per page.
  CallStats decode;    // DecodeText + EncodeUtf8, per decoded page.
  CallStats extract;   // ExtractLinks, per page.
  CallStats resolve;   // WebGraph::ResolveUrl, per link.
  CallStats outlinks;  // LinkDb::GetOutlinks, per page.

  void Merge(const ByteLayerStats& other);
};

struct ByteReplay {
  ByteLayerStats stats;
  /// First discrepancy found ("" when every page checked out).
  std::string error;
};

/// Replays the OK pages of `record` on `threads` threads (each with its
/// own clone of `classifier`). Every call is timed; use one thread when
/// the times are to be reported, so the layers do not contend.
ByteReplay ReplayBytes(const lswc::WebGraph& graph,
                       const lswc::Classifier& classifier,
                       const CrawlRecorder& record, unsigned threads);

}  // namespace crawlbench

#endif  // CRAWLBENCH_BYTES_H_
