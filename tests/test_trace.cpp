// Per-job tracing plane: collector span trees, the sink's per-trace byte
// budget, ring retention, slowest-K reservoir semantics, rendering, and —
// under the TSan CI lane (TraceConcurrency) — the sink's locking:
// concurrent publishers and readers must never observe a torn trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/trace.hpp"

namespace distapx::trace {
namespace {

/// Builds a finished trace with `n` top-level spans named s1..sn.
Trace make_trace(std::uint64_t id, const std::string& endpoint,
                 std::uint32_t n) {
  Collector c(id, endpoint);
  for (std::uint32_t i = 1; i <= n; ++i) {
    const std::uint32_t s = c.begin("s" + std::to_string(i));
    c.annotate(s, "i", static_cast<std::uint64_t>(i));
    c.end(s);
  }
  return c.finish();
}

TEST(Trace, CollectorBuildsParentedSpansInOrder) {
  Collector c(7, "submit");
  const std::uint32_t recv = c.begin("recv");
  c.annotate(recv, "conn", std::uint64_t{3});
  c.end(recv);
  const std::uint32_t exec = c.begin("lane-execute");
  const std::uint32_t child = c.begin("cache-lookup", exec);
  c.annotate(child, "outcome", "hit");
  c.end(child);
  c.end(exec);
  const Trace t = c.finish();

  EXPECT_EQ(t.id, 7u);
  EXPECT_EQ(t.endpoint, "submit");
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[0].name, "recv");
  EXPECT_EQ(t.spans[0].parent, 0u);
  EXPECT_EQ(t.spans[0].notes, "conn=3");
  EXPECT_EQ(t.spans[1].name, "lane-execute");
  EXPECT_EQ(t.spans[2].name, "cache-lookup");
  EXPECT_EQ(t.spans[2].parent, exec);
  EXPECT_EQ(t.spans[2].notes, "outcome=hit");
  // Child ids are 1-based and ordered: parent id < child id.
  EXPECT_LT(t.spans[2].parent, t.spans[2].id);
  EXPECT_EQ(t.dropped_spans, 0u);
}

TEST(Trace, FinishClosesOpenSpansSnapshotKeepsThemOpen) {
  Collector c(1, "submit");
  const std::uint32_t s = c.begin("respond");
  const Trace snap = c.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].end_ns, 0u) << "snapshot must not close spans";
  const Trace fin = c.finish();
  ASSERT_EQ(fin.spans.size(), 1u);
  EXPECT_NE(fin.spans[0].end_ns, 0u) << "finish must close open spans";
  EXPECT_GE(fin.duration_ns, fin.spans[0].duration_ns());
  (void)s;
}

TEST(Trace, SpanCapCountsDroppedAndIdZeroIsNoOp) {
  Collector c(1, "submit");
  for (std::uint32_t i = 0; i < kMaxSpansPerTrace; ++i) {
    EXPECT_NE(c.begin("s"), 0u);
  }
  const std::uint32_t overflow = c.begin("overflow");
  EXPECT_EQ(overflow, 0u);
  // All operations on the no-op id must be harmless.
  c.annotate(overflow, "k", "v");
  c.end(overflow);
  const Trace t = c.finish();
  EXPECT_EQ(t.spans.size(), kMaxSpansPerTrace);
  EXPECT_EQ(t.dropped_spans, 1u);
}

TEST(Trace, ContextGuardRoutesScopedSpansAndAnnotations) {
  Collector c(9, "spool");
  const std::uint32_t root = c.begin("serve-file");
  {
    const ContextGuard guard(Context{&c, root});
    ScopedSpan span("cache-lookup");
    span.annotate("seed", std::uint64_t{5});
    annotate_current("outcome", "miss");
  }
  annotate_current("ignored", "no-context");  // no-op outside the guard
  c.end(root);
  const Trace t = c.finish();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[1].name, "cache-lookup");
  EXPECT_EQ(t.spans[1].parent, root);
  EXPECT_EQ(t.spans[1].notes, "seed=5 outcome=miss");
}

TEST(Trace, SinkCutsTracesToWholeSpansWithinSlotBytes) {
  const Trace t = make_trace(1, "submit", 64);
  SinkOptions opts;
  opts.slot_bytes = 256;  // small budget: only a prefix of spans fits
  TraceSink sink(opts);
  sink.publish(t);

  const std::vector<Trace> recent = sink.recent();
  const auto tables = sink.slowest();
  ASSERT_EQ(recent.size(), 1u);
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_EQ(tables[0].second.size(), 1u);
  for (const Trace& back : {recent[0], tables[0].second[0]}) {
    EXPECT_EQ(back.id, t.id);
    EXPECT_EQ(back.endpoint, t.endpoint);
    EXPECT_EQ(back.duration_ns, t.duration_ns);
    // 42 fixed + 6 endpoint bytes, then 24 fixed + "sN" + "i=N" per span:
    // seven spans fill 251 of the 256 bytes, an eighth would not fit.
    EXPECT_EQ(back.spans.size(), 7u);
    EXPECT_EQ(back.dropped_spans,
              static_cast<std::uint32_t>(t.spans.size() - back.spans.size()));
    // The survivors are the earliest spans, intact.
    for (std::size_t i = 0; i < back.spans.size(); ++i) {
      EXPECT_EQ(back.spans[i].id, t.spans[i].id);
      EXPECT_EQ(back.spans[i].parent, t.spans[i].parent);
      EXPECT_EQ(back.spans[i].name, t.spans[i].name);
      EXPECT_EQ(back.spans[i].start_ns, t.spans[i].start_ns);
      EXPECT_EQ(back.spans[i].end_ns, t.spans[i].end_ns);
      EXPECT_EQ(back.spans[i].notes, t.spans[i].notes);
    }
  }
}

TEST(Trace, RingRetainsLastNNewestFirst) {
  SinkOptions opts;
  opts.recent_slots = 4;
  TraceSink sink(opts);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    sink.publish(make_trace(i, "submit", 1));
  }
  EXPECT_EQ(sink.published_total(), 10u);
  const std::vector<Trace> got = sink.recent();
  ASSERT_EQ(got.size(), 4u);
  // Newest first: ids 10, 9, 8, 7.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, 10 - i);
  }
}

TEST(Trace, SlowestTableKeepsTheKSlowestPerEndpoint) {
  SinkOptions opts;
  opts.slowest_per_endpoint = 3;
  TraceSink sink(opts);
  // Publish with synthetic durations; ids track durations for checking.
  for (std::uint64_t d : {50, 10, 90, 20, 70, 30, 60}) {
    Trace t = make_trace(d, "submit", 1);
    t.duration_ns = d * 1'000'000;
    sink.publish(t);
  }
  Trace other = make_trace(999, "spool", 1);
  other.duration_ns = 1;
  sink.publish(other);

  const auto tables = sink.slowest();
  ASSERT_EQ(tables.size(), 2u);  // sorted by endpoint name
  EXPECT_EQ(tables[0].first, "spool");
  ASSERT_EQ(tables[0].second.size(), 1u);
  EXPECT_EQ(tables[0].second[0].id, 999u);
  EXPECT_EQ(tables[1].first, "submit");
  const std::vector<Trace>& slow = tables[1].second;
  ASSERT_EQ(slow.size(), 3u);
  // Slowest first: 90, 70, 60.
  EXPECT_EQ(slow[0].id, 90u);
  EXPECT_EQ(slow[1].id, 70u);
  EXPECT_EQ(slow[2].id, 60u);
}

TEST(Trace, SlowestTableBreaksTiesByIdAndKeepsIncumbentsOnEqualDuration) {
  SinkOptions opts;
  opts.slowest_per_endpoint = 3;
  TraceSink sink(opts);
  const auto publish = [&](std::uint64_t id, std::uint64_t ms) {
    Trace t = make_trace(id, "submit", 1);
    t.duration_ns = ms * 1'000'000;
    sink.publish(t);
  };
  const auto ids = [&] {
    const auto tables = sink.slowest();
    std::vector<std::uint64_t> out;
    for (const Trace& t : tables.at(0).second) out.push_back(t.id);
    return out;
  };
  publish(5, 10);
  publish(3, 10);
  publish(4, 10);
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{3, 4, 5}));
  // A full table admits only a strictly slower trace: an equal one, even
  // with a smaller id, leaves the incumbents in place.
  publish(1, 10);
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{3, 4, 5}));
  // A slower one evicts the last entry in tie order.
  publish(9, 20);
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{9, 3, 4}));
}

TEST(Trace, SinkClampsOptionsAndAddsCutSpansToCollectorDrops) {
  SinkOptions opts;
  opts.recent_slots = 0;
  opts.slot_bytes = 1;
  TraceSink sink(opts);
  EXPECT_EQ(sink.options().recent_slots, 1u);
  EXPECT_EQ(sink.options().slot_bytes, 256u);

  // A trace that fits the budget is kept whole; spans its collector
  // already dropped stay counted.
  Trace small = make_trace(1, "submit", 3);
  small.dropped_spans = 2;
  sink.publish(small);
  std::vector<Trace> got = sink.recent();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].spans.size(), 3u);
  EXPECT_EQ(got[0].dropped_spans, 2u);

  // A trace over the budget adds the spans cut off to that count, and a
  // one-slot ring holds only the newest trace.
  Trace big = make_trace(2, "submit", 64);
  big.dropped_spans = 2;
  sink.publish(big);
  got = sink.recent();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 2u);
  EXPECT_EQ(got[0].spans.size(), 7u);
  EXPECT_EQ(got[0].dropped_spans, 2u + 57u);
  EXPECT_EQ(sink.published_total(), 2u);
}

TEST(Trace, RenderTraceTreeShowsHierarchyAndNotes) {
  Collector c(42, "submit");
  const std::uint32_t exec = c.begin("lane-execute");
  const std::uint32_t child = c.begin("cache-lookup", exec);
  c.annotate(child, "outcome", "hit");
  c.end(child);
  c.end(exec);
  const std::string txt = render_trace_tree(c.finish());
  EXPECT_NE(txt.find("trace 42"), std::string::npos);
  EXPECT_NE(txt.find("endpoint=submit"), std::string::npos);
  EXPECT_NE(txt.find("lane-execute"), std::string::npos);
  EXPECT_NE(txt.find("cache-lookup"), std::string::npos);
  EXPECT_NE(txt.find("outcome=hit"), std::string::npos);
  // The child is indented deeper than its parent.
  EXPECT_LT(txt.find("lane-execute"), txt.find("cache-lookup"));
}

TEST(Trace, FlattenSpansEmitsTopLevelTokens) {
  Collector c(1, "submit");
  const std::uint32_t a = c.begin("queue-wait");
  c.end(a);
  const std::uint32_t b = c.begin("lane-execute");
  const std::uint32_t child = c.begin("compute", b);
  c.end(child);
  c.end(b);
  const std::string flat = flatten_spans(c.finish());
  EXPECT_NE(flat.find("queue-wait="), std::string::npos);
  EXPECT_NE(flat.find("lane-execute="), std::string::npos);
  EXPECT_EQ(flat.find("compute="), std::string::npos)
      << "children stay out of the flat breakdown: " << flat;
}

TEST(Trace, RenderTracezListsRecentAndSlowest) {
  TraceSink sink;
  sink.publish(make_trace(5, "submit", 2));
  const std::string page = render_tracez(sink);
  EXPECT_NE(page.find("tracez"), std::string::npos);
  EXPECT_NE(page.find("trace 5"), std::string::npos);
  EXPECT_NE(page.find("slowest"), std::string::npos);
}

TEST(Trace, KillSwitchFlipsAndRestores) {
  const bool was = enabled();
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(was);
}

// ---- the sink contention suite (runs under TSan in CI) -------------------

TEST(TraceConcurrency, ConcurrentPublishersAndReaderSeeNoTornTraces) {
  SinkOptions opts;
  opts.recent_slots = 8;  // small ring: writers lap it constantly
  opts.slowest_per_endpoint = 4;
  TraceSink sink(opts);

  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 400;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  // The reader hammers recent()/slowest() while writers publish. Every
  // returned trace must be internally consistent: its id matches the
  // span payload its writer built for it.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const Trace& t : sink.recent()) {
        ASSERT_EQ(t.endpoint, "submit");
        ASSERT_EQ(t.spans.size(), 2u);
        ASSERT_EQ(t.spans[0].notes, "id=" + std::to_string(t.id));
      }
      for (const auto& [endpoint, traces] : sink.slowest()) {
        ASSERT_EQ(endpoint, "submit");
        for (const Trace& t : traces) {
          ASSERT_EQ(t.spans.size(), 2u);
          ASSERT_EQ(t.spans[0].notes, "id=" + std::to_string(t.id));
        }
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(w) * kPerWriter + i;
        Collector c(id, "submit");
        const std::uint32_t a = c.begin("recv");
        c.annotate(a, "id", id);
        c.end(a);
        const std::uint32_t b = c.begin("lane-execute");
        c.end(b);
        Trace t = c.finish();
        t.duration_ns = id;  // deterministic, distinct durations
        sink.publish(t);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(sink.published_total(), kWriters * kPerWriter);
  EXPECT_GT(reads.load(), 0u);

  // Quiescent invariants. Retention: exactly recent_slots traces,
  // newest-first by publish order (strictly decreasing ids
  // are not guaranteed across writers, but distinctness is).
  const std::vector<Trace> rec = sink.recent();
  ASSERT_EQ(rec.size(), opts.recent_slots);
  std::set<std::uint64_t> ids;
  for (const Trace& t : rec) ids.insert(t.id);
  EXPECT_EQ(ids.size(), rec.size()) << "duplicate trace in the ring";

  // Slowest-K: the table holds exactly the K largest durations published
  // (durations == ids here, so the global maxima are known).
  const auto tables = sink.slowest();
  ASSERT_EQ(tables.size(), 1u);
  const std::vector<Trace>& slow = tables[0].second;
  ASSERT_EQ(slow.size(), opts.slowest_per_endpoint);
  const std::uint64_t total = kWriters * kPerWriter;
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].id, total - 1 - i)
        << "slot " << i << " is not the " << i << "-th slowest";
  }
}

TEST(TraceConcurrency, SharedCollectorAcceptsConcurrentWorkers) {
  Collector c(1, "submit");
  const std::uint32_t root = c.begin("lane-execute");
  constexpr int kThreads = 8;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      const ContextGuard guard(Context{&c, root});
      for (int i = 0; i < kSpansEach; ++i) {
        ScopedSpan span("compute");
        span.annotate("seed", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  c.end(root);
  const Trace t = c.finish();
  ASSERT_EQ(t.spans.size(), 1u + kThreads * kSpansEach);
  for (std::size_t i = 1; i < t.spans.size(); ++i) {
    EXPECT_EQ(t.spans[i].parent, root);
    EXPECT_EQ(t.spans[i].name, "compute");
  }
}

}  // namespace
}  // namespace distapx::trace
