/// Unit tests for the alert::obs subsystem: the JSON writer, the metrics
/// registry and snapshot merge semantics (the acceptance bar: N snapshots
/// merged pairwise must equal one serial aggregation), the trace sinks, the
/// profiler, the series table, and the run manifest.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"
#include "temp_dir.hpp"

namespace alert::obs {
namespace {

/// A file in a private directory, so concurrently running cases never
/// share one.
struct TempPath {
  explicit TempPath(const char* name) : path(dir.file(name)) {}
  test_support::TempDir dir{"alertsim-obs-test-"};
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- JsonWriter ------------------------------------------------------------

TEST(JsonWriter, ObjectWithMixedFields) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.field("name", "alert");
  w.field("count", std::uint64_t{42});
  w.field("rate", 0.5);
  w.field("ok", true);
  w.key("tags");
  w.begin_array();
  w.value("a");
  w.value("b");
  w.end_array();
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\"name\":\"alert\",\"count\":42,\"rate\":0.5,\"ok\":true,"
            "\"tags\":[\"a\",\"b\"]}");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\n\t"),
            "\"a\\\"b\\\\c\\n\\t\"");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(out.str(), "[null,null,1.5]");
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndDeduplicated) {
  MetricsRegistry reg;
  Counter& a = reg.counter("net.tx");
  Counter& b = reg.counter("net.tx");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
  // Registering more metrics must not invalidate existing handles.
  for (int i = 0; i < 100; ++i) {
    reg.counter("extra." + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("net.tx"), &a);
  EXPECT_EQ(a.value(), 3u);
}

TEST(MetricsRegistry, SnapshotFreezesAllKinds) {
  MetricsRegistry reg;
  reg.counter("c").inc(7);
  reg.gauge("g").set(2.5);
  reg.sample("s").add(1.0);
  reg.sample("s").add(3.0);
  util::Histogram& h = reg.histogram("h", 0.0, 10.0, 10);
  h.add(4.5);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.replications, 1u);
  ASSERT_EQ(snap.metrics.size(), 4u);

  const MetricValue* c = snap.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricKind::Counter);
  EXPECT_EQ(c->total, 7u);
  EXPECT_EQ(c->per_rep.count(), 1u);

  const MetricValue* g = snap.find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->per_rep.mean(), 2.5);

  const MetricValue* s = snap.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->samples.count(), 2u);
  EXPECT_DOUBLE_EQ(s->samples.mean(), 2.0);

  const MetricValue* hist = snap.find("h");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->bins.size(), 10u);
  EXPECT_EQ(hist->bins[4], 1u);

  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricsSnapshot, MergedReplicationsEqualSerialAggregation) {
  // The acceptance criterion: run N replications, snapshot each, merge the
  // snapshots — every statistic must equal one registry fed all N
  // replications' observations serially.
  constexpr int kReps = 4;
  MetricsRegistry serial;
  MetricsSnapshot merged;
  for (int rep = 0; rep < kReps; ++rep) {
    MetricsRegistry reg;
    for (int i = 0; i <= rep; ++i) {
      reg.counter("net.tx").inc(3);
      serial.counter("net.tx").inc(3);
      const double x = 0.25 * rep + 0.1 * i;
      reg.sample("app.latency_s").add(x);
      serial.sample("app.latency_s").add(x);
      reg.histogram("app.hop_count", 0.0, 40.0, 40).add(double(rep + i));
      serial.histogram("app.hop_count", 0.0, 40.0, 40).add(double(rep + i));
    }
    merged.merge(reg.snapshot());
  }
  EXPECT_EQ(merged.replications, std::size_t{kReps});

  const MetricsSnapshot one = serial.snapshot();
  const MetricValue* mc = merged.find("net.tx");
  const MetricValue* sc = one.find("net.tx");
  ASSERT_NE(mc, nullptr);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(mc->total, sc->total);
  // The merged counter additionally exposes per-replication spread.
  EXPECT_EQ(mc->per_rep.count(), std::size_t{kReps});

  const MetricValue* ms = merged.find("app.latency_s");
  const MetricValue* ss = one.find("app.latency_s");
  ASSERT_NE(ms, nullptr);
  ASSERT_NE(ss, nullptr);
  EXPECT_EQ(ms->samples.count(), ss->samples.count());
  EXPECT_NEAR(ms->samples.mean(), ss->samples.mean(), 1e-12);
  EXPECT_NEAR(ms->samples.variance(), ss->samples.variance(), 1e-12);
  EXPECT_NEAR(ms->samples.ci95_halfwidth(), ss->samples.ci95_halfwidth(),
              1e-12);

  const MetricValue* mh = merged.find("app.hop_count");
  const MetricValue* sh = one.find("app.hop_count");
  ASSERT_NE(mh, nullptr);
  ASSERT_NE(sh, nullptr);
  EXPECT_EQ(mh->bins, sh->bins);
}

TEST(MetricsSnapshot, MergeCarriesOneSidedMetrics) {
  MetricsRegistry a, b;
  a.counter("only.a").inc(1);
  a.counter("shared").inc(2);
  b.counter("shared").inc(5);
  b.counter("only.b").inc(9);
  MetricsSnapshot snap = a.snapshot();
  snap.merge(b.snapshot());
  ASSERT_NE(snap.find("only.a"), nullptr);
  ASSERT_NE(snap.find("only.b"), nullptr);
  EXPECT_EQ(snap.find("only.a")->total, 1u);
  EXPECT_EQ(snap.find("only.b")->total, 9u);
  EXPECT_EQ(snap.find("shared")->total, 7u);
  // Names stay sorted so find() (binary search) keeps working post-merge.
  for (std::size_t i = 1; i < snap.metrics.size(); ++i) {
    EXPECT_LT(snap.metrics[i - 1].name, snap.metrics[i].name);
  }
}

TEST(MetricsSnapshot, WriteJsonEmitsEveryKind) {
  MetricsRegistry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(1.5);
  reg.sample("s").add(2.0);
  reg.histogram("h", 0.0, 4.0, 4).add(1.0);
  std::ostringstream out;
  JsonWriter w(out);
  reg.snapshot().write_json(w);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"replications\":1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"sample\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"bins\":[0,1,0,0]"), std::string::npos);
}

// --- trace sinks -----------------------------------------------------------

TraceEvent sample_event() {
  TraceEvent ev;
  ev.t = 1.5;
  ev.node = 7;
  ev.uid = 99;
  ev.layer = TraceLayer::Mac;
  ev.kind = "tx.data";
  ev.duration = 0.001;
  ev.aux = 512;
  return ev;
}

TEST(TraceSinks, JsonlWritesOneObjectPerLine) {
  TempPath tmp("obs_test.jsonl");
  {
    JsonlTraceSink sink(tmp.path);
    sink.write(sample_event());
    sink.write(sample_event());
    sink.finish();
  }
  std::ifstream in(tmp.path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"kind\":\"tx.data\""), std::string::npos);
    EXPECT_NE(line.find("\"node\":7"), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
}

TEST(TraceSinks, CsvWritesHeaderThenRows) {
  TempPath tmp("obs_test.csv");
  {
    CsvTraceSink sink(tmp.path);
    sink.write(sample_event());
  }
  std::ifstream in(tmp.path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_NE(header.find("t,"), std::string::npos);
  EXPECT_NE(header.find("node"), std::string::npos);
  EXPECT_NE(row.find("tx.data"), std::string::npos);
}

TEST(TraceSinks, ChromeTraceIsAClosedJsonArray) {
  TempPath tmp("obs_test.json");
  {
    ChromeTraceSink sink(tmp.path);
    sink.write(sample_event());
    TraceEvent instant = sample_event();
    instant.duration = 0.0;
    sink.write(instant);
    sink.finish();
  }
  const std::string json = slurp(tmp.path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.find_last_not_of(" \n")], ']');
  // Complete slice for the timed event, instant for the zero-duration one.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // ts in microseconds of sim time.
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
}

TEST(TraceSinks, ChromeTraceClosesOnDestructionWithoutFinish) {
  TempPath tmp("obs_test_dtor.json");
  {
    ChromeTraceSink sink(tmp.path);
    sink.write(sample_event());
  }  // no explicit finish(); the destructor must close the array
  const std::string json = slurp(tmp.path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json[json.find_last_not_of(" \n")], ']');
}

TEST(TraceSinks, FactoryPicksSinkByExtension) {
  TempPath jsonl("f.jsonl");
  TempPath csv("f.csv");
  TempPath chrome("f.json");
  EXPECT_NE(dynamic_cast<JsonlTraceSink*>(make_trace_sink(jsonl.path).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<CsvTraceSink*>(make_trace_sink(csv.path).get()),
            nullptr);
  EXPECT_NE(
      dynamic_cast<ChromeTraceSink*>(make_trace_sink(chrome.path).get()),
      nullptr);
}

TEST(Tracer, DefaultConstructedIsDisabledAndInert) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.emit(sample_event());  // must not crash
}

// --- profiler --------------------------------------------------------------

TEST(Profiler, RecordsCountTotalAndMax) {
  Profiler p;
  const ScopeId dispatch = p.scope("sim.dispatch");
  EXPECT_EQ(p.scope("sim.dispatch"), dispatch);  // idempotent lookup
  p.record(dispatch, 10);
  p.record(dispatch, 30);
  p.record(dispatch, 20);
  const ProfileReport r = p.report();
  const ScopeStats* s = r.find("sim.dispatch");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 3u);
  EXPECT_EQ(s->total_ns, 60u);
  EXPECT_EQ(s->max_ns, 30u);
}

TEST(Profiler, ScopeTimerWithNullProfilerIsInert) {
  const ScopeId id = 0;
  ScopeTimer timer(nullptr, id);  // must not crash or record anything
}

TEST(ProfileReport, MergeAddsCountsAndKeepsMax) {
  Profiler a, b;
  a.record(a.scope("net.transmit"), 100);
  b.record(b.scope("net.transmit"), 250);
  b.record(b.scope("routing.alert.send"), 5);
  ProfileReport r = a.report();
  r.merge(b.report());
  const ScopeStats* t = r.find("net.transmit");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->count, 2u);
  EXPECT_EQ(t->total_ns, 350u);
  EXPECT_EQ(t->max_ns, 250u);
  ASSERT_NE(r.find("routing.alert.send"), nullptr);
  EXPECT_NE(r.summary().find("net.transmit"), std::string::npos);
}

// --- series table ----------------------------------------------------------

TEST(SeriesTable, PrintsWithoutCrashing) {
  util::Series s{"alert", {{100.0, 0.95, 0.01}, {200.0, 0.93, 0.02}}};
  ::testing::internal::CaptureStdout();
  print_series_table("Fig. X", "nodes", "delivery rate", {s});
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("Fig. X"), std::string::npos);
  EXPECT_NE(out.find("alert"), std::string::npos);
}

TEST(SeriesJson, EmitsNamePointsAndCi) {
  util::Series s{"gpsr", {{1.0, 2.0, 0.5}}};
  std::ostringstream out;
  JsonWriter w(out);
  write_series_json(w, {s});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"gpsr\""), std::string::npos);
  EXPECT_NE(json.find("\"x\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ci\":0.5"), std::string::npos);
}

// --- run manifest ----------------------------------------------------------

TEST(RunManifest, WriteJsonCarriesSchemaAndSections) {
  RunManifest m;
  m.name = "fig_test";
  m.title = "Test figure";
  m.x_label = "x";
  m.y_label = "y";
  m.seed = 42;
  m.replications = 3;
  m.add_param("node_count", "200");
  m.trace_digests = {0xdeadbeefULL, 0x1234ULL};
  MetricsRegistry reg;
  reg.counter("net.tx").inc(11);
  m.metrics = reg.snapshot();
  m.notes.push_back("a note");
  std::ostringstream out;
  m.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find(std::string("\"schema\":\"") + kManifestSchema),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fig_test\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"node_count\":\"200\""), std::string::npos);
  EXPECT_NE(json.find("\"net.tx\""), std::string::npos);
  EXPECT_NE(json.find("a note"), std::string::npos);
  EXPECT_NE(json.find("\"version\""), std::string::npos);
}

TEST(RunManifest, WriteFileRoundTripsAndFailsOnBadPath) {
  TempPath tmp("obs_manifest.json");
  RunManifest m;
  m.name = "roundtrip";
  EXPECT_TRUE(m.write_file(tmp.path));
  EXPECT_NE(slurp(tmp.path).find("\"roundtrip\""), std::string::npos);
  EXPECT_FALSE(m.write_file("/nonexistent-dir/x/manifest.json"));
}

TEST(BuildVersion, IsNonEmpty) {
  ASSERT_NE(build_version(), nullptr);
  EXPECT_NE(std::string(build_version()), "");
}

}  // namespace
}  // namespace alert::obs
