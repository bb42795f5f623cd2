// Tests for the gnumap::obs tracing + metrics subsystem: recorder
// correctness across threads, histogram bucket semantics, exporter
// well-formedness (parsed by a minimal in-test JSON parser), the
// disabled-mode overhead bound, and the no-observer-effect guarantee
// (byte-identical SNP output with tracing on vs. off in both DistModes).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gnumap/core/dist_modes.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/obs/metrics.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: enough of RFC 8259 to verify exporter output in-test.

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json& at(const std::string& key) const {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      ADD_FAILURE() << "missing JSON key: " << key;
      static const Json null;
      return null;
    }
    return it->second;
  }
  bool has(const std::string& key) const { return fields.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (at_ != text_.size()) fail("trailing characters");
    return v;
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why + " at offset " + std::to_string(at_);
    }
    at_ = text_.size();  // stop consuming
  }
  void skip_ws() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
  }
  char peek() {
    skip_ws();
    if (at_ >= text_.size()) {
      fail("unexpected end");
      return '\0';
    }
    return text_[at_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++at_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }
  Json object() {
    Json v;
    v.kind = Json::kObject;
    expect('{');
    if (peek() == '}') { ++at_; return v; }
    for (;;) {
      Json key = string_value();
      expect(':');
      v.fields[key.text] = value();
      if (peek() == ',') { ++at_; continue; }
      expect('}');
      return v;
    }
  }
  Json array() {
    Json v;
    v.kind = Json::kArray;
    expect('[');
    if (peek() == ']') { ++at_; return v; }
    for (;;) {
      v.items.push_back(value());
      if (peek() == ',') { ++at_; continue; }
      expect(']');
      return v;
    }
  }
  Json string_value() {
    Json v;
    v.kind = Json::kString;
    expect('"');
    while (at_ < text_.size() && text_[at_] != '"') {
      char c = text_[at_++];
      if (c == '\\') {
        if (at_ >= text_.size()) { fail("bad escape"); return v; }
        const char esc = text_[at_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (at_ + 4 > text_.size()) { fail("bad \\u"); return v; }
            at_ += 4;
            c = '?';  // fidelity not needed for these tests
            break;
          default: fail("bad escape"); return v;
        }
      }
      v.text += c;
    }
    expect('"');
    return v;
  }
  Json boolean() {
    Json v;
    v.kind = Json::kBool;
    if (text_.compare(at_, 4, "true") == 0) {
      v.boolean = true;
      at_ += 4;
    } else if (text_.compare(at_, 5, "false") == 0) {
      at_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }
  Json null() {
    Json v;
    if (text_.compare(at_, 4, "null") == 0) at_ += 4;
    else fail("bad literal");
    return v;
  }
  Json number() {
    Json v;
    v.kind = Json::kNumber;
    const std::size_t start = at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            std::string("+-.eE").find(text_[at_]) != std::string::npos)) {
      ++at_;
    }
    try {
      v.number = std::stod(text_.substr(start, at_ - start));
    } catch (...) {
      fail("bad number");
    }
    return v;
  }

  const std::string& text_;
  std::size_t at_ = 0;
  bool ok_ = true;
  std::string error_;
};

Json parse_json_or_fail(const std::string& text) {
  JsonParser parser(text);
  Json v = parser.parse();
  EXPECT_TRUE(parser.ok()) << parser.error();
  return v;
}

/// Every test starts from a clean slate; tracing is left disabled.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::reset_trace();
    obs::registry().reset();
  }
  void TearDown() override { obs::set_trace_enabled(false); }
};

std::string trace_json() {
  std::ostringstream out;
  obs::write_chrome_trace(out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Recorder.

TEST_F(ObsTest, DisabledSpanRecordsNothing) {
  { GNUMAP_TRACE_SPAN("quiet", "test"); }
  const Json t = parse_json_or_fail(trace_json());
  for (const auto& e : t.at("traceEvents").items) {
    EXPECT_NE(e.at("ph").text, "X");
  }
}

TEST_F(ObsTest, SpanNestingWithinAThread) {
  obs::set_trace_enabled(true);
  {
    GNUMAP_TRACE_SPAN("outer", "test");
    { GNUMAP_TRACE_SPAN("inner", "test"); }
  }
  const Json t = parse_json_or_fail(trace_json());
  const Json* outer = nullptr;
  const Json* inner = nullptr;
  for (const auto& e : t.at("traceEvents").items) {
    if (e.at("ph").text != "X") continue;
    if (e.at("name").text == "outer") outer = &e;
    if (e.at("name").text == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The inner span completes first but nests inside the outer interval on
  // the same track.
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  EXPECT_LE(outer->at("ts").number, inner->at("ts").number);
  EXPECT_GE(outer->at("ts").number + outer->at("dur").number,
            inner->at("ts").number + inner->at("dur").number);
}

TEST_F(ObsTest, ThreadsRecordOntoTheirOwnNamedTracks) {
  obs::set_trace_enabled(true);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([i] {
      obs::set_thread_track(i, "worker " + std::to_string(i));
      GNUMAP_TRACE_SPAN("work", "test");
    });
  }
  for (auto& t : threads) t.join();

  // Buffers outlive the joined threads; the export must show all three
  // named tracks, each carrying its own span.
  const Json t = parse_json_or_fail(trace_json());
  std::map<double, std::string> track_names;
  std::set<double> span_tracks;
  for (const auto& e : t.at("traceEvents").items) {
    if (e.at("ph").text == "M" && e.at("name").text == "thread_name") {
      track_names[e.at("tid").number] = e.at("args").at("name").text;
    }
    if (e.at("ph").text == "X" && e.at("name").text == "work") {
      span_tracks.insert(e.at("tid").number);
    }
  }
  EXPECT_EQ(span_tracks.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(span_tracks.count(i)) << "no span on track " << i;
    EXPECT_EQ(track_names[i], "worker " + std::to_string(i));
  }
}

TEST_F(ObsTest, SpanArgsAndInstantsSurviveExport) {
  obs::set_trace_enabled(true);
  {
    obs::TraceSpan span("send", "comm", "bytes", 4096.0, "peer", 2.0);
  }
  obs::record_instant("crash", "fault", "step", 17.0);
  const Json t = parse_json_or_fail(trace_json());
  bool saw_span = false, saw_instant = false;
  for (const auto& e : t.at("traceEvents").items) {
    if (e.at("ph").text == "X" && e.at("name").text == "send") {
      saw_span = true;
      EXPECT_EQ(e.at("args").at("bytes").number, 4096.0);
      EXPECT_EQ(e.at("args").at("peer").number, 2.0);
    }
    if (e.at("ph").text == "i" && e.at("name").text == "crash") {
      saw_instant = true;
      EXPECT_EQ(e.at("args").at("step").number, 17.0);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST_F(ObsTest, MetadataReachesOtherData) {
  obs::set_trace_metadata("dist_mode", "read_partition");
  const Json t = parse_json_or_fail(trace_json());
  EXPECT_EQ(t.at("otherData").at("dist_mode").text, "read_partition");
  // Build identity is always present.
  EXPECT_TRUE(t.at("otherData").has("git_sha"));
  EXPECT_TRUE(t.at("otherData").has("host"));
}

TEST_F(ObsTest, DisabledSpanOverheadIsBounded) {
  // The disabled fast path is one relaxed load + branch, and tagging the
  // span with a request trace id (the serve hot path does this for every
  // connection) must stay on it.  Best-of-several trials to shrug off
  // scheduler noise on a busy host; the bound is ~10x the expected cost
  // so a regression to lock/allocate shows clearly.
  constexpr int kTrials = 7;
  constexpr int kSpans = 200000;
  double best_ns = 1e9;
  for (int trial = 0; trial < kTrials; ++trial) {
    Timer timer;
    for (int i = 0; i < kSpans; ++i) {
      obs::TraceSpan span("hot", "test");
      span.set_id(0xDEADBEEFCAFEF00Dull + static_cast<std::uint64_t>(i));
    }
    best_ns = std::min(best_ns, timer.seconds() * 1e9 / kSpans);
  }
  EXPECT_LT(best_ns, 25.0) << "disabled tagged span costs " << best_ns
                           << " ns";
}

// ---------------------------------------------------------------------------
// Metrics.

TEST_F(ObsTest, HistogramBucketBoundaries) {
  obs::Histogram& h = obs::registry().histogram(
      "test_bounds_seconds", {0.001, 0.01, 0.1}, "bucket boundary test");
  h.observe(0.0005);  // below first bound -> bucket 0
  h.observe(0.001);   // exactly on a bound lands in that bound's bucket
  h.observe(0.0011);  // just above -> bucket 1
  h.observe(0.1);     // exactly the last bound -> bucket 2
  h.observe(5.0);     // above every bound -> +Inf bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 0.0005 + 0.001 + 0.0011 + 0.1 + 5.0, 1e-12);
}

TEST_F(ObsTest, MetricsJsonIsWellFormed) {
  obs::registry().counter("test_events_total", "help text").inc(3);
  obs::registry().gauge("test_level").set(0.5);
  obs::registry()
      .histogram("test_wait_seconds", {0.01, 0.1}, "with \"quotes\"")
      .observe(0.05);

  std::ostringstream out;
  obs::registry().write_json(out);
  const Json m = parse_json_or_fail(out.str());

  // Context block shares the bench-JSON identity schema.
  const Json& context = m.at("context");
  EXPECT_TRUE(context.has("host_name"));
  EXPECT_TRUE(context.has("num_cpus"));
  EXPECT_TRUE(context.has("git_sha"));
  EXPECT_TRUE(context.has("library_build_type"));

  const Json& metrics = m.at("metrics");
  EXPECT_EQ(metrics.at("test_events_total").at("value").number, 3.0);
  EXPECT_EQ(metrics.at("test_level").at("value").number, 0.5);
  const Json& hist = metrics.at("test_wait_seconds");
  EXPECT_EQ(hist.at("count").number, 1.0);
  EXPECT_NEAR(hist.at("sum").number, 0.05, 1e-12);
}

TEST_F(ObsTest, PrometheusExportHasCumulativeBuckets) {
  obs::Histogram& h = obs::registry().histogram(
      "test_lat_seconds", {0.001, 0.01}, "latency");
  h.observe(0.0005);
  h.observe(0.005);
  h.observe(1.0);
  obs::registry().counter("test_rank_total{rank=\"2\"}").inc(7);

  std::ostringstream out;
  obs::registry().write_prometheus(out);
  const std::string text = out.str();
  // Cumulative le buckets: 1, 2, 3(+Inf); count and sum lines present.
  EXPECT_NE(text.find("test_lat_seconds_bucket{le=\"0.001\"} 1"),
            std::string::npos) << text;
  EXPECT_NE(text.find("test_lat_seconds_bucket{le=\"0.01\"} 2"),
            std::string::npos) << text;
  EXPECT_NE(text.find("test_lat_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos) << text;
  EXPECT_NE(text.find("test_lat_seconds_count 3"), std::string::npos);
  // Labelled counter keeps its baked-in label.
  EXPECT_NE(text.find("test_rank_total{rank=\"2\"} 7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// No observer effect: tracing must not change SNP output.

struct Workload {
  Genome ref;
  std::vector<Read> reads;
};

Workload make_workload() {
  ReferenceGenOptions ref_options;
  ref_options.length = 30000;
  ref_options.repeat_fraction = 0.0;
  ref_options.n_fraction = 0.0;
  Workload w;
  w.ref = generate_reference(ref_options);
  CatalogGenOptions catalog_options;
  catalog_options.count = 15;
  const auto catalog = generate_catalog(w.ref, catalog_options);
  const Genome individual = apply_catalog(w.ref, catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = 10.0;
  w.reads = strip_metadata(simulate_reads(individual, sim_options));
  return w;
}

std::string calls_tsv(const std::vector<SnpCall>& calls) {
  std::ostringstream out;
  write_snps_tsv(out, calls);
  return out.str();
}

class TracingObserverEffect : public ObsTest,
                              public ::testing::WithParamInterface<DistMode> {
};

TEST_P(TracingObserverEffect, SnpOutputByteIdenticalTracingOnOff) {
  const Workload w = make_workload();
  PipelineConfig config;
  config.index.k = 9;
  DistOptions options;
  options.ranks = 3;
  options.mode = GetParam();

  const auto baseline = run_distributed(w.ref, w.reads, config, options);
  obs::set_trace_enabled(true);
  const auto traced = run_distributed(w.ref, w.reads, config, options);
  obs::set_trace_enabled(false);

  EXPECT_EQ(calls_tsv(baseline.calls), calls_tsv(traced.calls));
}

INSTANTIATE_TEST_SUITE_P(Modes, TracingObserverEffect,
                         ::testing::Values(DistMode::kReadPartition,
                                           DistMode::kGenomePartition));

// ---------------------------------------------------------------------------
// End-to-end: a traced 4-rank distributed run produces per-rank tracks with
// comm, compute, and checkpoint spans (the Perfetto acceptance shape).

TEST_F(ObsTest, DistributedTraceHasPerRankCommComputeCheckpointSpans) {
  const Workload w = make_workload();
  PipelineConfig config;
  config.index.k = 9;
  DistOptions options;
  options.ranks = 4;
  options.mode = DistMode::kReadPartition;
  // A benign plan (slow factor 1.0) switches fault_mode on — enabling
  // checkpoints — without perturbing the run.
  options.faults = FaultPlan().slow(0, 1.0);
  options.checkpoint_interval = 50;

  obs::set_trace_enabled(true);
  const auto result = run_distributed(w.ref, w.reads, config, options);
  obs::set_trace_enabled(false);
  ASSERT_FALSE(result.calls.empty());

  const Json t = parse_json_or_fail(trace_json());
  std::map<double, std::string> track_names;
  std::map<double, std::set<std::string>> categories_by_track;
  for (const auto& e : t.at("traceEvents").items) {
    if (e.at("ph").text == "M" && e.at("name").text == "thread_name") {
      track_names[e.at("tid").number] = e.at("args").at("name").text;
    }
    if (e.at("ph").text == "X") {
      categories_by_track[e.at("tid").number].insert(e.at("cat").text);
    }
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(track_names[r], "rank " + std::to_string(r));
    const auto& cats = categories_by_track[r];
    EXPECT_TRUE(cats.count("comm")) << "rank " << r << " has no comm spans";
    EXPECT_TRUE(cats.count("compute"))
        << "rank " << r << " has no compute spans";
    EXPECT_TRUE(cats.count("ckpt"))
        << "rank " << r << " has no checkpoint spans";
  }
  EXPECT_EQ(t.at("otherData").at("ranks").text, "4");
  EXPECT_EQ(t.at("otherData").at("dist_mode").text, "read_partition");
}

}  // namespace
}  // namespace gnumap
