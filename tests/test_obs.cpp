// Observability layer units (DESIGN.md §12): MetricsRegistry semantics
// (sharded counters, power-of-four histograms, deterministic JSON),
// Tracer span/sequence semantics under a deterministic clock, and the
// exporter edge cases — empty run, single span, deep nesting, and an
// adversarial-name fuzz sweep through the JSON writer (the documents must
// stay parseable no matter what bytes land in a span name).

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/tracer.hpp"
#include "src/tensor/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace obs = compso::obs;

namespace {

// --- MetricsRegistry ---

TEST(Metrics, CountersAccumulate) {
  obs::MetricsRegistry reg;
  reg.add("a");
  reg.add("a", 4);
  reg.add("b", 7);
  EXPECT_EQ(reg.counter("a"), 5U);
  EXPECT_EQ(reg.counter("b"), 7U);
  EXPECT_EQ(reg.counter("never"), 0U);
}

TEST(Metrics, BucketIndexPowerOfFour) {
  EXPECT_EQ(obs::MetricsRegistry::bucket_index(0), 0U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_index(1), 1U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_index(3), 1U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_index(4), 2U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_index(15), 2U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_index(16), 3U);
  // Saturates in the last bucket.
  EXPECT_EQ(obs::MetricsRegistry::bucket_index(~0ULL),
            obs::MetricsRegistry::kHistogramBuckets - 1);
  // Every boundary: 4^(i-1) lands in bucket i.
  std::uint64_t v = 1;
  for (std::size_t i = 1; i + 1 < obs::MetricsRegistry::kHistogramBuckets;
       ++i, v *= 4) {
    EXPECT_EQ(obs::MetricsRegistry::bucket_index(v), i) << v;
    EXPECT_EQ(obs::MetricsRegistry::bucket_index(v * 4 - 1), i) << v;
  }
}

TEST(Metrics, HistogramSnapshotSumsAndCounts) {
  obs::MetricsRegistry reg;
  reg.observe("h", 0);
  reg.observe("h", 3);
  reg.observe("h", 100);
  const auto snap = reg.snapshot();
  const auto& h = snap.histograms.at("h");
  EXPECT_EQ(h.count, 3U);
  EXPECT_EQ(h.sum, 103U);
  EXPECT_EQ(h.buckets[0], 1U);
  EXPECT_EQ(h.buckets[obs::MetricsRegistry::bucket_index(3)], 1U);
  EXPECT_EQ(h.buckets[obs::MetricsRegistry::bucket_index(100)], 1U);
}

TEST(Metrics, CrossThreadMergeIsExact) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8, kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.add("shared");
        reg.observe("lat", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("shared"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.histograms.at("lat").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ResetZeroesInPlace) {
  obs::MetricsRegistry reg;
  reg.add("c", 3);
  reg.observe("h", 9);
  reg.set_gauge("g", 1.5);
  reg.reset();
  EXPECT_EQ(reg.counter("c"), 0U);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.histograms.at("h").count, 0U);
  EXPECT_TRUE(snap.gauges.empty());
  reg.add("c");  // cached cells survive the reset.
  EXPECT_EQ(reg.counter("c"), 1U);
}

TEST(Metrics, JsonIsDeterministicAndParses) {
  obs::MetricsRegistry a, b;
  // Insert in different orders; the export must not care.
  a.add("x");
  a.add("y", 2);
  a.set_gauge("g", 0.25);
  a.observe("h", 5);
  b.observe("h", 5);
  b.set_gauge("g", 0.25);
  b.add("y", 2);
  b.add("x");
  EXPECT_EQ(a.to_json(), b.to_json());
  const auto doc = obs::parse_json(a.to_json());
  ASSERT_TRUE(doc.has_value());
  const auto* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* x = counters->find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_DOUBLE_EQ(x->number, 1.0);
  const auto* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const auto* h = hists->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("sum")->number, 5.0);
  EXPECT_EQ(h->find("buckets")->array.size(),
            obs::MetricsRegistry::kHistogramBuckets);
}

// --- Tracer ---

TEST(Tracer, SpanRecordsCompleteEvent) {
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  clock.set_ns(100);
  tracer.reset();  // origin = 100.
  {
    auto span = tracer.span(obs::kMainTrack, "work", "test");
    clock.advance_ns(40);
    span.add_arg("bytes", 7);
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].ts_ns, 0U);  // relative to the reset origin.
  EXPECT_EQ(events[0].dur_ns, 40U);
  ASSERT_EQ(events[0].args.size(), 1U);
  EXPECT_EQ(events[0].args[0].first, "bytes");
  EXPECT_EQ(events[0].args[0].second, 7U);
}

TEST(Tracer, SequencesOrderEventsPerTrack) {
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  tracer.reset();
  auto outer = tracer.span(obs::kMainTrack, "outer", "t");
  {
    auto inner = tracer.span(obs::kMainTrack, "inner", "t");
    clock.advance_ns(5);
  }
  tracer.complete(obs::kTaskTrackBase, "task", "t", 0, 0);
  tracer.instant(obs::kMainTrack, "marker", "t");
  outer.end();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4U);
  // Sorted by (track, seq): main track first, seq claimed at span START.
  EXPECT_EQ(events[0].name, "outer");  // seq 0, recorded last but first here.
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "marker");
  EXPECT_EQ(events[2].phase, 'i');
  EXPECT_EQ(events[3].name, "task");
  EXPECT_EQ(events[3].track, obs::kTaskTrackBase);
}

TEST(Tracer, DeterministicClockGivesByteIdenticalExports) {
  const auto run_once = [] {
    obs::ManualClock clock;
    obs::Tracer tracer(&clock);
    tracer.reset();
    for (int i = 0; i < 5; ++i) {
      auto s = tracer.span(obs::kMainTrack, "step", "t");
      clock.advance_ns(17);
      s.add_arg("i", static_cast<std::uint64_t>(i));
    }
    return tracer.trace_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Tracer, ResetDropsEventsAndRebasesOrigin) {
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  tracer.reset();
  tracer.instant(obs::kMainTrack, "before", "t");
  clock.advance_ns(1000);
  tracer.reset();
  EXPECT_EQ(tracer.event_count(), 0U);
  tracer.instant(obs::kMainTrack, "after", "t");
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].ts_ns, 0U);  // rebased to the new origin.
  EXPECT_EQ(events[0].seq, 0U);    // sequence counters restart too.
}

TEST(ObsHooks, NullHooksAreInert) {
  obs::ObsHooks hooks;  // nothing attached.
  EXPECT_FALSE(hooks.enabled());
  hooks.count("x");
  hooks.observe("h", 1);
  hooks.gauge("g", 1.0);
  hooks.instant(obs::kMainTrack, "i");
  { auto s = hooks.span(obs::kMainTrack, "s"); }
  EXPECT_FALSE(hooks.deterministic_time());
}

// --- exporter edge cases ---

TEST(Exporter, EmptyRunIsValid) {
  obs::MetricsRegistry reg;
  const auto doc = obs::parse_json(reg.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("counters")->object.empty());

  obs::Tracer tracer;
  const auto trace = tracer.trace_json();
  EXPECT_EQ(obs::validate_trace(trace), std::nullopt);
  const auto parsed = obs::parse_json(trace);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->find("traceEvents")->array.empty());
}

TEST(Exporter, SingleSpanIsValid) {
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  tracer.reset();
  {
    auto s = tracer.span(obs::kMainTrack, "only", "t");
    clock.advance_ns(3);
  }
  EXPECT_EQ(obs::validate_trace(tracer.trace_json()), std::nullopt);
}

TEST(Exporter, DeepSpanNestingStaysFlatAndValid) {
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  tracer.reset();
  // 300 nested RAII spans: far deeper than the JSON parser's depth limit,
  // which must not matter because trace events serialize as a flat array.
  std::vector<obs::Tracer::Span> stack;
  for (int i = 0; i < 300; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    stack.push_back(tracer.span(obs::kMainTrack, std::move(name), "t"));
    clock.advance_ns(1);
  }
  while (!stack.empty()) stack.pop_back();
  EXPECT_EQ(tracer.event_count(), 300U);
  EXPECT_EQ(obs::validate_trace(tracer.trace_json()), std::nullopt);
}

TEST(Exporter, AsciiAdversarialNamesRoundTrip) {
  // Quotes, backslashes, control bytes: the writer must escape them and a
  // conforming parser must recover the exact original string.
  const std::vector<std::string> names = {
      "plain", "with \"quotes\"", "back\\slash", "tab\tand\nnewline",
      std::string("embedded\0nul", 12), "\x01\x02\x1f control", "{}[],:\"",
  };
  obs::Tracer tracer;
  obs::MetricsRegistry reg;
  for (const auto& n : names) {
    tracer.instant(obs::kMainTrack, n, "fuzz");
    reg.add(n, 1);
  }
  const auto trace = tracer.trace_json();
  ASSERT_EQ(obs::validate_trace(trace), std::nullopt) << trace;
  const auto doc = obs::parse_json(trace);
  ASSERT_TRUE(doc.has_value());
  const auto& events = doc->find("traceEvents")->array;
  ASSERT_EQ(events.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(events[i].find("name")->string, names[i]) << i;
  }
  const auto mdoc = obs::parse_json(reg.to_json());
  ASSERT_TRUE(mdoc.has_value());
  EXPECT_EQ(mdoc->find("counters")->object.size(), names.size());
}

TEST(Exporter, FuzzedByteStringNamesNeverBreakTheDocument) {
  compso::tensor::Rng rng(20260806);
  obs::Tracer tracer;
  obs::MetricsRegistry reg;
  for (int round = 0; round < 200; ++round) {
    const std::size_t len = rng.uniform_index(24);
    std::string name;
    for (std::size_t i = 0; i < len; ++i) {
      name.push_back(static_cast<char>(rng() & 0xFF));
    }
    tracer.instant(obs::kMainTrack, name, "fuzz", {{name, rng() % 1000}});
    reg.add(name);
    reg.observe(name, rng() % (1ULL << 40));
    reg.set_gauge(name, 0.5);
  }
  // Arbitrary bytes >= 0x80 are escaped as \u00XX (the export is pure
  // ASCII); the documents must stay structurally valid and parseable.
  EXPECT_EQ(obs::validate_trace(tracer.trace_json()), std::nullopt);
  EXPECT_TRUE(obs::parse_json(reg.to_json()).has_value());
}

// --- JSON writer / parser units ---

TEST(Json, DoubleFormatting) {
  std::string out;
  obs::append_json_double(out, 0.25);
  EXPECT_EQ(out, "0.25");
  out.clear();
  obs::append_json_double(out, std::nan(""));
  EXPECT_EQ(out, "null");  // NaN is not valid JSON.
  out.clear();
  obs::append_json_double(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::parse_json("").has_value());
  EXPECT_FALSE(obs::parse_json("{").has_value());
  EXPECT_FALSE(obs::parse_json("{} garbage").has_value());
  EXPECT_FALSE(obs::parse_json("{\"a\":}").has_value());
  // Adversarial nesting beyond the depth limit must fail, not crash.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(obs::parse_json(deep).has_value());
  // ...while reasonable nesting parses.
  EXPECT_TRUE(obs::parse_json("[[[[[[1]]]]]]").has_value());
}

TEST(Json, UnicodeEscapesDecode) {
  const auto doc = obs::parse_json("\"a\\u0041\\u00e9\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string, "aA\xc3\xa9");  // U+00E9 as UTF-8.
}

}  // namespace
