#include "checks.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "core/scorer.h"

namespace crawlbench {

using lswc::PageId;

namespace {
std::string Str(uint64_t v) { return std::to_string(v); }

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}
}  // namespace

bool TrulyRelevant(const lswc::WebGraph& graph, PageId page) {
  const lswc::PageRecord& record = graph.page(page);
  return record.http_status == 200 &&
         record.language == graph.target_language();
}

uint64_t CountRelevant(const lswc::WebGraph& graph) {
  uint64_t count = 0;
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    if (TrulyRelevant(graph, p)) ++count;
  }
  return count;
}

std::vector<uint8_t> ReachableFromSeeds(const lswc::WebGraph& graph) {
  std::vector<uint8_t> seen(graph.num_pages(), 0);
  std::vector<PageId> queue;
  for (PageId seed : graph.seeds()) {
    if (seen[seed] == 0) {
      seen[seed] = 1;
      queue.push_back(seed);
    }
  }
  for (size_t i = 0; i < queue.size(); ++i) {
    const PageId page = queue[i];
    if (graph.page(page).http_status != 200) continue;  // Nothing to follow.
    for (PageId child : graph.outlinks(page)) {
      if (seen[child] != 0) continue;
      seen[child] = 1;
      queue.push_back(child);
    }
  }
  return seen;
}

std::string CheckSeriesRecount(const lswc::Series& program,
                               std::span<const SampleRow> rows,
                               uint64_t total_relevant) {
  if (program.num_rows() != rows.size()) {
    return "series has " + Str(program.num_rows()) + " rows, recount has " +
           Str(rows.size());
  }
  if (program.num_columns() != 3) return "series does not have 3 columns";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SampleRow& row = rows[i];
    const double expected[3] = {Pct(row.relevant, row.pages),
                                Pct(row.relevant, total_relevant),
                                static_cast<double>(row.frontier)};
    if (program.x(i) != static_cast<double>(row.pages)) {
      return "series row " + Str(i) + " is at " +
             std::to_string(program.x(i)) + " pages, recount at " +
             Str(row.pages);
    }
    for (size_t col = 0; col < 3; ++col) {
      if (program.y(i, col) != expected[col]) {
        return "series row " + Str(i) + " column " +
               program.y_column(col).name + " is " +
               std::to_string(program.y(i, col)) + ", recount " +
               std::to_string(expected[col]);
      }
    }
  }
  return "";
}

std::string CheckFetchFlags(const lswc::WebGraph& graph,
                            const CrawlRecorder& record) {
  for (size_t i = 0; i < record.fetched.size(); ++i) {
    const PageId page = record.fetched[i];
    if (page >= graph.num_pages()) return "fetched id out of range";
    const bool ok = (record.flags[i] & kFetchOk) != 0;
    const bool relevant = (record.flags[i] & kFetchTrulyRelevant) != 0;
    if (ok != (graph.page(page).http_status == 200)) {
      return "fetch of page " + Str(page) + " reported ok=" + Str(ok);
    }
    if (relevant != TrulyRelevant(graph, page)) {
      return "fetch of page " + Str(page) + " reported truly_relevant=" +
             Str(relevant);
    }
  }
  return "";
}

std::string CheckNoRepeat(size_t num_pages, std::span<const PageId> fetched) {
  std::vector<uint8_t> seen(num_pages, 0);
  for (PageId page : fetched) {
    if (page >= num_pages) return "fetched id out of range";
    if (seen[page] != 0) return "page " + Str(page) + " was crawled twice";
    seen[page] = 1;
  }
  return "";
}

std::string CheckCrawledSet(std::span<const uint8_t> reachable,
                            std::span<const PageId> fetched, bool exact) {
  for (PageId page : fetched) {
    if (page >= reachable.size() || reachable[page] == 0) {
      return "page " + Str(page) + " was crawled but is not reachable";
    }
  }
  if (!exact) return "";
  const uint64_t expected =
      static_cast<uint64_t>(std::count(reachable.begin(), reachable.end(), 1));
  if (fetched.size() != expected) {
    return "crawled " + Str(fetched.size()) + " pages, " + Str(expected) +
           " are reachable";
  }
  return "";
}

std::string CheckRelevantInSet(const lswc::WebGraph& graph,
                               std::span<const uint8_t> reachable,
                               uint64_t relevant_crawled) {
  uint64_t expected = 0;
  for (PageId p = 0; p < reachable.size(); ++p) {
    if (reachable[p] != 0 && TrulyRelevant(graph, p)) ++expected;
  }
  if (relevant_crawled != expected) {
    return "crawled " + Str(relevant_crawled) + " relevant pages, " +
           Str(expected) + " are reachable";
  }
  return "";
}

std::string CheckSeriesEqual(const lswc::Series& expected,
                             const lswc::Series& actual) {
  if (expected.num_rows() != actual.num_rows() ||
      expected.num_columns() != actual.num_columns()) {
    return "series shape differs: " + Str(expected.num_rows()) + " vs " +
           Str(actual.num_rows()) + " rows";
  }
  for (size_t i = 0; i < expected.num_rows(); ++i) {
    if (expected.x(i) != actual.x(i)) return "series x differs at row " + Str(i);
    for (size_t col = 0; col < expected.num_columns(); ++col) {
      if (expected.y(i, col) != actual.y(i, col)) {
        return "series column " + expected.y_column(col).name +
               " differs at row " + Str(i);
      }
    }
  }
  return "";
}

std::string CheckConfusion(const lswc::ConfusionCounts& program,
                           const CrawlRecorder& record) {
  lswc::ConfusionCounts recount;
  for (uint8_t flags : record.flags) {
    if ((flags & kFetchOk) == 0) continue;
    const bool truth = (flags & kFetchTrulyRelevant) != 0;
    const bool judged = (flags & kFetchJudgedRelevant) != 0;
    uint64_t& cell = truth ? (judged ? recount.true_positive
                                     : recount.false_negative)
                           : (judged ? recount.false_positive
                                     : recount.true_negative);
    ++cell;
  }
  if (program.true_positive != recount.true_positive ||
      program.false_positive != recount.false_positive ||
      program.true_negative != recount.true_negative ||
      program.false_negative != recount.false_negative) {
    return "confusion tp/fp/tn/fn " + Str(program.true_positive) + "/" +
           Str(program.false_positive) + "/" + Str(program.true_negative) +
           "/" + Str(program.false_negative) + ", recount " +
           Str(recount.true_positive) + "/" + Str(recount.false_positive) +
           "/" + Str(recount.true_negative) + "/" +
           Str(recount.false_negative);
  }
  return "";
}

std::string CheckPageLinks(PageId page, std::span<const PageId> parsed,
                           std::span<const PageId> outlinks) {
  if (!std::equal(parsed.begin(), parsed.end(), outlinks.begin(),
                  outlinks.end())) {
    return "page " + Str(page) + ": HTML links resolve to " +
           Str(parsed.size()) + " pages that differ from its " +
           Str(outlinks.size()) + " link-database outlinks";
  }
  return "";
}

std::string CheckBatchSelections(const lswc::WebGraph& graph,
                                 const std::string& spec, uint32_t k,
                                 std::span<const FrontierEvent> log,
                                 uint32_t stride, uint64_t* rounds_checked) {
  auto scorer = lswc::MakeCompositeScorer(
      spec, lswc::ScorerEnv{&graph, graph.generator_seed()});
  if (!scorer.ok()) return "scorer spec: " + scorer.status().ToString();
  struct Pending {
    uint64_t seq = 0;
    lswc::ScoreInputs inputs;
  };
  struct Ranked {
    PageId url;
    double score;
    uint64_t seq;
  };
  std::unordered_map<PageId, Pending> pending;
  std::unordered_set<PageId> in_round;
  uint64_t next_seq = 0;
  uint64_t round = 0;
  uint64_t checked = 0;
  std::vector<PageId> selected;
  std::vector<Ranked> ranked;
  for (size_t i = 0; i < log.size(); ++i) {
    const FrontierEvent& event = log[i];
    if (event.kind == FrontierEvent::kPush) {
      if (in_round.count(event.url) != 0) continue;
      const auto [it, inserted] = pending.try_emplace(event.url);
      if (inserted) it->second.seq = next_seq++;
      lswc::ScoreInputs& inputs = it->second.inputs;
      inputs.priority = static_cast<int16_t>(std::clamp<int32_t>(
          event.priority, std::numeric_limits<int16_t>::min(),
          std::numeric_limits<int16_t>::max()));
      inputs.annotation = event.annotation;
      inputs.parent_relevant = event.parent_relevant;
      inputs.parent_confidence = event.parent_confidence;
      continue;
    }
    if (event.kind == FrontierEvent::kPop) {
      if (in_round.erase(event.url) == 0) {
        return "page " + Str(event.url) + " was popped outside any round";
      }
      continue;
    }
    // A new round: its selection is this pop and every pop up to the next
    // round start.
    if (!in_round.empty()) return "round " + Str(round) + " began early";
    selected.clear();
    for (size_t j = i; j < log.size(); ++j) {
      if (log[j].kind == FrontierEvent::kPush) continue;
      if (j > i && log[j].kind == FrontierEvent::kRoundStart) break;
      selected.push_back(log[j].url);
    }
    if (round % stride == 0) {
      ranked.clear();
      for (const auto& [url, entry] : pending) {
        ranked.push_back(Ranked{url, (*scorer)->Score(url, entry.inputs),
                                entry.seq});
      }
      const size_t take = std::min<size_t>(k, ranked.size());
      std::partial_sort(ranked.begin(), ranked.begin() + take, ranked.end(),
                        [](const Ranked& a, const Ranked& b) {
                          if (a.score != b.score) return a.score > b.score;
                          return a.seq < b.seq;
                        });
      if (selected.size() != take) {
        return "round " + Str(round) + " selected " + Str(selected.size()) +
               " URLs, expected " + Str(take);
      }
      for (size_t r = 0; r < take; ++r) {
        if (selected[r] != ranked[r].url) {
          return "round " + Str(round) + " rank " + Str(r) + " selected page " +
                 Str(selected[r]) + ", the best pending is page " +
                 Str(ranked[r].url);
        }
      }
      ++checked;
    }
    for (PageId url : selected) {
      if (pending.erase(url) == 0) {
        return "round " + Str(round) + " selected page " + Str(url) +
               " which was not pending";
      }
      in_round.insert(url);
    }
    in_round.erase(event.url);
    ++round;
  }
  if (rounds_checked != nullptr) *rounds_checked = checked;
  return "";
}

}  // namespace crawlbench
