#include "bytes.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "charset/codec.h"
#include "checks.h"
#include "html/link_extractor.h"
#include "webgraph/content_gen.h"
#include "webgraph/link_db.h"

namespace crawlbench {

using lswc::PageId;

void ByteLayerStats::Merge(const ByteLayerStats& other) {
  render.Merge(other.render);
  classify.Merge(other.classify);
  decode.Merge(other.decode);
  extract.Merge(other.extract);
  resolve.Merge(other.resolve);
  outlinks.Merge(other.outlinks);
}

namespace {

/// One page through every byte layer, in the Visitor's order.
std::string ReplayPage(const lswc::WebGraph& graph, PageId page,
                       bool judged_relevant, lswc::Classifier* classifier,
                       lswc::LinkDb* link_db, ByteLayerStats* stats) {
  const lswc::PageRecord& record = graph.page(page);
  lswc::FetchResponse response;
  response.page = page;
  response.http_status = record.http_status;
  response.meta_charset = record.meta_charset;
  response.true_language = record.language;
  response.true_encoding = record.true_encoding;
  {
    Probe probe(&stats->render, 0);
    auto body = lswc::RenderPageBody(graph, page);
    if (!body.ok()) return "render: " + body.status().ToString();
    response.body = std::move(body).value();
  }
  {
    Probe probe(&stats->outlinks, 0);
    const lswc::Status status = link_db->GetOutlinks(page, &response.outlinks);
    if (!status.ok()) return "outlinks: " + status.ToString();
  }
  lswc::RelevanceJudgment judgment;
  {
    Probe probe(&stats->classify, 0);
    judgment = classifier->Judge(response);
  }
  if (judgment.relevant != judged_relevant) {
    return "page " + std::to_string(page) +
           " judges differently from the crawl's verdict";
  }
  lswc::Encoding believed = judgment.encoding;
  if (believed == lswc::Encoding::kUnknown) believed = response.meta_charset;
  std::string utf8;
  bool decoded = false;
  if (believed != lswc::Encoding::kUnknown) {
    Probe probe(&stats->decode, 0);
    auto text = lswc::DecodeText(believed, response.body);
    if (text.ok()) {
      utf8 = lswc::EncodeUtf8(*text);
      decoded = true;
    }
  }
  const std::string page_url = graph.UrlOf(page);
  lswc::LinkExtractorOptions options;
  options.collect_anchor_text = false;
  std::vector<lswc::ExtractedLink> links;
  {
    Probe probe(&stats->extract, 0);
    links = lswc::ExtractLinks(page_url, decoded ? utf8 : response.body,
                               options);
  }
  std::vector<PageId> parsed;
  parsed.reserve(links.size());
  for (const lswc::ExtractedLink& link : links) {
    PageId child = 0;
    bool resolved = false;
    {
      Probe probe(&stats->resolve, 0);
      resolved = graph.ResolveUrl(link.url, &child);
    }
    if (resolved) parsed.push_back(child);
  }
  return CheckPageLinks(page, parsed, response.outlinks);
}

}  // namespace

ByteReplay ReplayBytes(const lswc::WebGraph& graph,
                       const lswc::Classifier& classifier,
                       const CrawlRecorder& record, unsigned threads) {
  threads = std::max(1u, threads);
  const size_t n = record.fetched.size();
  std::vector<ByteLayerStats> stats(threads);
  std::vector<std::string> errors(threads);
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::unique_ptr<lswc::Classifier> clone = classifier.Clone();
        if (clone == nullptr) {
          errors[t] = "classifier " + classifier.name() + " cannot clone";
          return;
        }
        lswc::InMemoryLinkDb link_db(&graph);
        for (size_t i = n * t / threads; i < n * (t + 1) / threads; ++i) {
          if ((record.flags[i] & kFetchOk) == 0) continue;
          errors[t] = ReplayPage(
              graph, record.fetched[i],
              (record.flags[i] & kFetchJudgedRelevant) != 0, clone.get(),
              &link_db, &stats[t]);
          if (!errors[t].empty()) return;
        }
      });
    }
  }  // Joins every worker.
  ByteReplay replay;
  for (unsigned t = 0; t < threads; ++t) {
    replay.stats.Merge(stats[t]);
    if (replay.error.empty()) replay.error = errors[t];
  }
  return replay;
}

}  // namespace crawlbench
