// perfbench — one benchmark run of one workload, in two phases.
//
//   perfbench prepare --workload W --seed N --seconds S --trace T --dir D
//   perfbench measure --workload W --seed N --seconds S --trace T --dir D
//
// `prepare` writes the seeded inputs into D (reference FASTA, truth, reads
// or amplicon requests, arrival schedule) together with the expected
// outputs every measured operation is checked against: for batch-2m the
// TSV of the benchmark's own layer-by-layer pass, for the serve-style
// workloads each request's offline MappingSession answer (TSV and SAM).
// None of that is timed.  `measure` sets the workload up several times,
// drives it through the public entry points, checks every output byte for
// byte, and prints one JSON object of raw figures on its last stdout line
// (perfbench/run.py adds the host record and the process's peak RSS).
//
// With --trace 0 the measured passes are untouched library calls.  With
// --trace 1 the benchmark additionally runs its layer pass, which calls
// each module's public functions itself and times them from here
// (nothing inside src/ is instrumented), and reads the counters the
// program already exports: MapStats, PipelineResult, MAP_DONE keys,
// ServerStats and MappingServer::digests().
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "gnumap/core/config.hpp"
#include "gnumap/core/evaluation.hpp"
#include "gnumap/core/read_mapper.hpp"
#include "gnumap/core/session.hpp"
#include "gnumap/core/snp_caller.hpp"
#include "gnumap/fleet/router.hpp"
#include "gnumap/io/fasta.hpp"
#include "gnumap/io/output_chunk.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_catalog.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/obs/build_info.hpp"
#include "gnumap/phmm/batched.hpp"
#include "gnumap/serve/client.hpp"
#include "gnumap/serve/server.hpp"
#include "gnumap/util/log.hpp"
#include "gnumap/util/timer.hpp"
#include "workload.hpp"

using namespace gnumap;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Fixed workload parameters.

constexpr int kBatchThreads = 2;       ///< batch-2m mapping workers
constexpr int kPrepareThreads = 4;     ///< untimed reference computations
constexpr int kClients = 4;            ///< load-generator threads/connections
constexpr double kRequestRate = 10.0 / 3;  ///< offered requests per second
constexpr std::size_t kMinRequests = 100;  ///< p90 needs ten beyond it
constexpr int kSetups = 15;           ///< set-ups per run; setup_s = median
/// Layer pass: batches decoded per round before the workers score them.
constexpr std::size_t kRoundBatches = 64;
/// The traced batch pass fails when its ledger leaves more than this share
/// of its wall time unattributed.
constexpr double kMaxUnattributedShare = 0.05;

struct Args {
  std::string phase;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path dir;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench prepare|measure --workload W "
                    "--seed N --seconds S --trace 0|1 --dir D");
  Args a;
  a.phase = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--dir") a.dir = value;
    else die("unknown option " + key);
  }
  if (a.phase != "prepare" && a.phase != "measure") die("bad phase");
  if (a.workload != "batch-2m" && a.workload != "serve-amplicon" &&
      a.workload != "router-amplicon") {
    die("unknown workload " + a.workload);
  }
  if (a.dir.empty() || a.seconds <= 0.0) die("--dir and --seconds required");
  return a;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Runs fn(worker) on `threads` threads and rethrows the first exception
/// any of them raised once all have joined.
template <typename Fn>
void on_threads(int threads, Fn&& fn) {
  std::mutex mu;
  std::exception_ptr first;
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      try {
        fn(w);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  if (first) std::rethrow_exception(first);
}

std::string request_name(std::size_t i, const char* ext) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "req%04zu.%s", i, ext);
  return buf;
}

std::size_t fastq_records(const std::string& text) {
  return static_cast<std::size_t>(
             std::count(text.begin(), text.end(), '\n')) / 4;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A percentile the rules allow, or a hard failure naming it.
double require_percentile(const std::vector<double>& v, double q,
                          const char* what) {
  const auto p = perfbench::percentile(v, q);
  if (!p) {
    throw std::runtime_error(
        std::string("too few samples (") + std::to_string(v.size()) +
        ") for the p" + std::to_string(static_cast<int>(q * 100)) + " of " +
        what);
  }
  return *p;
}

std::size_t request_count(double seconds) {
  const auto offered =
      static_cast<std::size_t>(std::lround(seconds * kRequestRate));
  return std::max(kMinRequests, offered);
}

PipelineConfig workload_config(const std::string& workload) {
  PipelineConfig config;
  config.threads = workload == "batch-2m" ? kBatchThreads : 1;
  return config;
}

// ---------------------------------------------------------------------------
// The layer pass: the pipeline's steps called one module at a time, with
// the benchmark's own clocks around each call.

struct Ledger {
  double wall_s = 0.0;
  double covered_s = 0.0;  ///< wall time some layer timing accounts for
  double decode_s = 0.0;
  double seed_s = 0.0;
  double score_s = 0.0;
  double apply_s = 0.0;
  double call_s = 0.0;
  std::uint64_t accum_bytes = 0;
  MapStats stats;
  phmm::KernelTimings kernel;

  void add(const Ledger& o) {
    wall_s += o.wall_s;
    covered_s += o.covered_s;
    decode_s += o.decode_s;
    seed_s += o.seed_s;
    score_s += o.score_s;
    apply_s += o.apply_s;
    call_s += o.call_s;
    accum_bytes = std::max(accum_bytes, o.accum_bytes);
    stats += o.stats;
    kernel += o.kernel;
  }
};

/// Per-worker share of one round.
struct WorkerTimes {
  double seed_s = 0.0, score_s = 0.0, flatten_s = 0.0;
  MapStats stats;
  phmm::KernelTimings kernel;
};

/// decode -> seed -> score -> flatten -> apply -> call -> render, with the
/// scoring fanned out over `threads` workers.  Returns the TSV.  Produces
/// the same bytes as MappingSession::run: the same batches are scored by
/// the same ReadMapper and their accumulator deltas are replayed in input
/// order, exactly as the pipeline's drain does.
std::string layer_pass(const MappingSession& session, std::istream& fastq,
                       int threads, Ledger& ledger) {
  const PipelineConfig& config = session.config();
  const ReadMapper& mapper = session.mapper();
  const Genome& genome = session.genome();
  Timer wall;
  Timer t;
  FastqReadStream stream(fastq, config.stream_batch, 33, "<layer-pass>");
  auto accum = make_accumulator(config.accum_kind, 0, genome.padded_size(),
                                config.centdisc_quantize);
  ledger.apply_s += t.seconds();
  ledger.covered_s += t.seconds();
  ledger.accum_bytes = accum->memory_bytes();

  std::vector<std::unique_ptr<MapperWorkspace>> spaces;
  for (int w = 0; w < threads; ++w) {
    spaces.push_back(std::make_unique<MapperWorkspace>());
  }
  bool more = true;
  while (more) {
    std::vector<ReadBatch> batches;
    t.reset();
    while (batches.size() < kRoundBatches) {
      ReadBatch batch;
      if (!stream.next(batch)) {
        more = false;
        break;
      }
      batches.push_back(std::move(batch));
    }
    ledger.decode_s += t.seconds();
    ledger.covered_s += t.seconds();
    if (batches.empty()) break;

    std::vector<std::vector<io::AccumDelta>> deltas(batches.size());
    std::vector<WorkerTimes> times(static_cast<std::size_t>(threads));
    std::atomic<std::size_t> next{0};
    const auto work = [&](int w) {
      WorkerTimes& wt = times[static_cast<std::size_t>(w)];
      MapperWorkspace& ws = *spaces[static_cast<std::size_t>(w)];
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= batches.size()) return;
        const std::vector<Read>& reads = batches[i].reads;
        Timer step;
        for (const Read& read : reads) (void)mapper.seeder().candidates(read);
        wt.seed_s += step.seconds();
        step.reset();
        const auto scored = mapper.score_reads(
            std::span<const Read>(reads.data(), reads.size()), ws, wt.stats);
        wt.score_s += step.seconds();
        wt.kernel += ws.batch.timings();
        step.reset();
        for (const auto& sites : scored) {
          ReadMapper::flatten_contributions(sites, deltas[i]);
        }
        wt.flatten_s += step.seconds();
      }
    };
    if (threads == 1) {
      work(0);
    } else {
      on_threads(threads, work);
    }
    for (const WorkerTimes& wt : times) {
      ledger.seed_s += wt.seed_s;
      ledger.score_s += wt.score_s;
      ledger.covered_s += (wt.seed_s + wt.score_s + wt.flatten_s) /
                          static_cast<double>(threads);
      ledger.stats += wt.stats;
      ledger.kernel += wt.kernel;
    }

    t.reset();
    for (const auto& d : deltas) io::apply_accum_deltas(*accum, d);
    ledger.apply_s += t.seconds();
    ledger.covered_s += t.seconds();
  }

  t.reset();
  const std::vector<SnpCall> calls = call_snps(genome, *accum, config);
  ledger.call_s += t.seconds();
  ledger.covered_s += t.seconds();
  t.reset();
  std::string tsv;
  append_snps_tsv(tsv, calls);
  ledger.covered_s += t.seconds();
  ledger.wall_s += wall.seconds();
  return tsv;
}

// ---------------------------------------------------------------------------
// JSON output.

class Json {
 public:
  /// Non-finite values (a failed run's latency) print as null.
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    field(key, std::isfinite(value) ? buf : "null");
  }
  void str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    field(key, quoted + "\"");
  }
  void boolean(const std::string& key, bool value) {
    field(key, value ? "true" : "false");
  }
  void object(const std::string& key, const Json& inner) {
    field(key, inner.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

/// One metric with its unit, as run.py passes it through.
struct Metrics {
  Json json;
  void add(const std::string& name, double value, const char* unit) {
    Json m;
    m.num("value", value);
    m.str("unit", unit);
    json.object(name, m);
  }
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;  ///< benchmark checks beyond output bytes
  Metrics metrics;
  bool correct() const { return failed == 0 && checks_passed; }
};

/// Prints the run's raw result and returns the program's exit status.
int emit(const Args& args, const Outcome& out) {
  Json host;
  host.str("simd", phmm::simd_level_name(phmm::resolve_simd_level()));
  host.str("build_type", obs::build_info().build_type);
  host.str("git_sha", obs::build_info().git_sha);
  host.str("compiler", obs::build_info().compiler);
  Json all;
  all.str("workload", args.workload);
  all.boolean("correct", out.correct());
  all.num("attempted", static_cast<double>(out.attempted));
  all.num("failed", static_cast<double>(out.failed));
  all.object("host", host);
  all.object("metrics", out.metrics.json);
  std::printf("%s\n", all.text().c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Set-up.

/// Reference load plus index build, `kSetups` times; returns the median and
/// keeps the last build.  `release` drops the previous build (untimed) and
/// `build` constructs whatever the workload serves from — a session, a
/// daemon, or a router with its shards — over the freshly loaded genome.
/// The index-build part of each set-up is appended to `index_times`.
template <typename Release, typename Build>
double timed_setups(const fs::path& fasta, std::unique_ptr<Genome>& genome,
                    Release&& release, Build&& build,
                    std::vector<double>& index_times) {
  std::vector<double> total;
  for (int i = 0; i < kSetups; ++i) {
    release();
    genome.reset();
    Timer t;
    genome = std::make_unique<Genome>(genome_from_fasta_file(fasta.string()));
    Timer index_t;
    build(*genome);
    index_times.push_back(index_t.seconds());
    total.push_back(t.seconds());
  }
  return median(total);
}

// ---------------------------------------------------------------------------
// batch-2m

/// ReadStream decorator that timestamps every batch the pipeline's decoder
/// pulls — the batch-2m latency probe at the public ReadStream seam.
class TimedStream final : public ReadStream {
 public:
  explicit TimedStream(ReadStream& inner)
      : ReadStream(inner.batch_size()), inner_(inner) {}
  bool next(ReadBatch& batch) override {
    const bool more = inner_.next(batch);
    if (more) pulls_.push_back(Clock::now());
    cursor_ = inner_.cursor();
    return more;
  }
  bool reset() override {
    const bool ok = inner_.reset();
    cursor_ = inner_.cursor();
    return ok;
  }
  std::uint64_t skip(std::uint64_t n) override {
    const std::uint64_t skipped = inner_.skip(n);
    cursor_ = inner_.cursor();
    return skipped;
  }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }
  const std::vector<Clock::time_point>& pulls() const { return pulls_; }

 private:
  ReadStream& inner_;
  std::vector<Clock::time_point> pulls_;
};

struct BatchPass {
  PipelineResult result;
  std::string tsv;
  double wall_s = 0.0;
  std::vector<double> batch_ms;  ///< per-batch decoder-seam latency samples
};

BatchPass batch_pass(const MappingSession& session, const fs::path& reads) {
  BatchPass pass;
  FastqReadStream file(reads.string(), session.config().stream_batch);
  TimedStream stream(file);
  Timer t;
  pass.result = session.run(stream);
  pass.wall_s = t.seconds();
  append_snps_tsv(pass.tsv, pass.result.calls);
  // A batch pulled at time t(i) has left the decode->map window once
  // batch i + W is pulled, W = queue_depth + threads: the wait one batch
  // sees between decode and its mapper worker.
  const auto& pulls = stream.pulls();
  const std::size_t window =
      session.config().queue_depth +
      static_cast<std::size_t>(session.config().threads);
  for (std::size_t i = 0; i + window < pulls.size(); ++i) {
    pass.batch_ms.push_back(
        std::chrono::duration<double, std::milli>(pulls[i + window] -
                                                  pulls[i])
            .count());
  }
  return pass;
}

void add_eval(Metrics& m, const EvalResult& eval) {
  m.add("precision", eval.precision(), "ratio");
  m.add("recall", eval.recall(), "ratio");
}

void add_ledger(Metrics& m, const Ledger& l, double reads) {
  const double kernel_s = l.kernel.forward_seconds + l.kernel.backward_seconds;
  m.add("io.decode_s", l.decode_s, "s");
  m.add("index.seed_s", l.seed_s, "s");
  m.add("index.candidates_per_read",
        static_cast<double>(l.stats.candidates_evaluated) / reads, "count");
  m.add("index.useful_ratio",
        static_cast<double>(l.stats.sites_accumulated) /
            static_cast<double>(std::max<std::uint64_t>(
                1, l.stats.candidates_evaluated)),
        "ratio");
  m.add("phmm.forward_s", l.kernel.forward_seconds, "s");
  m.add("phmm.backward_s", l.kernel.backward_seconds, "s");
  m.add("phmm.cells_per_read", static_cast<double>(l.kernel.cells) / reads,
        "count");
  m.add("phmm.gcups",
        kernel_s > 0 ? static_cast<double>(l.kernel.cells) / kernel_s / 1e9
                     : 0.0,
        "GCUPS");
  const double swept = static_cast<double>(l.kernel.swept_cells);
  m.add("phmm.lane_occupancy",
        swept > 0 ? static_cast<double>(l.kernel.cells) / swept : 0.0,
        "ratio");
  m.add("core.score_s", l.score_s, "s");
  m.add("core.score_other_s", l.score_s - l.seed_s - kernel_s, "s");
  m.add("core.unattributed_share", 1.0 - l.covered_s / l.wall_s, "ratio");
  m.add("accum.apply_s", l.apply_s, "s");
  m.add("accum.bytes", static_cast<double>(l.accum_bytes), "bytes");
  m.add("stats.call_s", l.call_s, "s");
}

/// Per-layer metrics of layers a workload does not exercise, reported as 0.
struct Unmeasured {
  const char* name;
  const char* unit;
};
constexpr Unmeasured kServeLayers[] = {
    {"serve.admission_wait_ms", "ms"}, {"serve.upload_wait_ms", "ms"},
    {"serve.server_ms", "ms"},         {"serve.wire_ms", "ms"},
    {"serve.result_bytes_per_read", "bytes"},
    {"serve.upload_bytes_per_read", "bytes"},
    {"serve.busy_answers", "count"},   {"serve.reconnects", "count"},
    {"serve.inflight_peak", "count"},  {"serve.gen_late_ms", "ms"}};
constexpr Unmeasured kFleetLayers[] = {
    {"fleet.router_ms", "ms"},
    {"fleet.shard_ms", "ms"},
    {"fleet.partial_bytes_per_read", "bytes"},
    {"fleet.candidates_per_read", "count"}};

template <std::size_t N>
void add_zero(Metrics& m, const Unmeasured (&layers)[N]) {
  for (const Unmeasured& layer : layers) m.add(layer.name, 0.0, layer.unit);
}

void prepare_batch(const Args& args, const perfbench::Reference& ref) {
  write_file(args.dir / "reads.fastq", perfbench::batch_fastq(ref, args.seed));
  if (args.trace) return;  // the traced measure computes its own reference
  const Genome genome =
      genome_from_fasta_file((args.dir / "reference.fa").string());
  const MappingSession session(genome, workload_config(args.workload));
  std::ifstream fastq(args.dir / "reads.fastq");
  Ledger ledger;
  write_file(args.dir / "expected.tsv",
             layer_pass(session, fastq, kPrepareThreads, ledger));
}

int measure_batch(const Args& args, const SnpCatalog& truth) {
  const PipelineConfig config = workload_config(args.workload);
  std::unique_ptr<Genome> genome;
  std::unique_ptr<MappingSession> session;
  std::vector<double> index_times;
  const double setup_s = timed_setups(
      args.dir / "reference.fa", genome, [&] { session.reset(); },
      [&](const Genome& g) {
        session = std::make_unique<MappingSession>(g, config);
      },
      index_times);
  const fs::path reads = args.dir / "reads.fastq";

  Outcome out;
  if (!args.trace) {
    const std::string expected = read_file(args.dir / "expected.tsv");
    std::vector<double> batch_ms;
    double wall = 0.0;
    double n_reads = 0.0;
    EvalResult eval;
    const double cpu0 = cpu_seconds();
    do {
      const BatchPass pass = batch_pass(*session, reads);
      ++out.attempted;
      if (pass.tsv != expected) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: batch-2m pass %llu TSV differs from "
                     "the layer pass (%zu vs %zu bytes)\n",
                     static_cast<unsigned long long>(out.attempted),
                     pass.tsv.size(), expected.size());
      }
      wall += pass.wall_s;
      n_reads += static_cast<double>(pass.result.stats.reads_total);
      batch_ms.insert(batch_ms.end(), pass.batch_ms.begin(),
                      pass.batch_ms.end());
      eval = evaluate_calls(pass.result.calls, truth);
      // Stop at the pass count whose total lands closest to --seconds.
    } while (wall + 0.5 * wall / static_cast<double>(out.attempted) <
             args.seconds);
    const double cpu = cpu_seconds() - cpu0;
    Metrics& m = out.metrics;
    m.add("setup_s", setup_s, "s");
    m.add("reads_per_s", n_reads / wall, "reads/s");
    m.add("cpu_s_per_kread", cpu / (n_reads / 1000.0), "s");
    m.add("req_p50_ms", require_percentile(batch_ms, 0.5, "batch latency"),
          "ms");
    m.add("req_p90_ms", require_percentile(batch_ms, 0.9, "batch latency"),
          "ms");
    m.add("ok_ratio",
          static_cast<double>(out.attempted - out.failed) /
              static_cast<double>(out.attempted),
          "ratio");
    add_eval(m, eval);
    return emit(args, out);
  }

  // Traced run: the layer pass, then one untraced pass it must match.
  Ledger ledger;
  std::string traced_tsv;
  {
    std::ifstream fastq(reads);
    traced_tsv = layer_pass(*session, fastq, kBatchThreads, ledger);
  }
  const BatchPass pass = batch_pass(*session, reads);
  out.attempted = 1;
  if (pass.tsv != traced_tsv) {
    out.failed = 1;
    std::fprintf(stderr, "perfbench: batch-2m TSV differs from the traced "
                 "layer pass\n");
  }
  const double n_reads = static_cast<double>(pass.result.stats.reads_total);
  const PipelineResult& r = pass.result;
  Metrics& m = out.metrics;
  add_ledger(m, ledger, n_reads);
  m.add("index.build_s", median(index_times), "s");
  m.add("index.bytes",
        static_cast<double>(r.index_memory_bytes + genome->padded_size()),
        "bytes");
  m.add("core.map_stage_s", r.map_stage_seconds, "s");
  m.add("core.batch_wait_s",
        std::max(0.0, config.threads * r.map_seconds - r.map_stage_seconds -
                          r.format_seconds),
        "s");
  m.add("core.format_s", r.format_seconds, "s");
  m.add("core.splice_s", r.splice_seconds, "s");
  add_zero(m, kServeLayers);
  add_zero(m, kFleetLayers);
  m.add("trace.overhead_ratio",
        (n_reads / ledger.wall_s) / (n_reads / pass.wall_s), "ratio");
  const double unattributed = 1.0 - ledger.covered_s / ledger.wall_s;
  if (unattributed > kMaxUnattributedShare) {
    out.checks_passed = false;
    std::fprintf(stderr, "perfbench: ledger leaves %.1f%% of the traced "
                 "pass unattributed (limit %.0f%%)\n", unattributed * 100,
                 kMaxUnattributedShare * 100);
  }
  return emit(args, out);
}

// ---------------------------------------------------------------------------
// serve-amplicon and router-amplicon

void prepare_requests(const Args& args, const perfbench::Reference& ref) {
  const std::size_t n = request_count(args.seconds);
  const auto requests = perfbench::amplicon_requests(ref, args.seed, n);
  const auto schedule =
      perfbench::arrival_schedule(args.seed, n, kRequestRate);
  std::string sched_text;
  for (double t : schedule) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g\n", t);
    sched_text += buf;
  }
  write_file(args.dir / "schedule.txt", sched_text);

  // The offline answer of every request, on kPrepareThreads threads.
  const Genome genome =
      genome_from_fasta_file((args.dir / "reference.fa").string());
  const MappingSession session(genome, workload_config(args.workload));
  std::vector<EvalResult> evals(n);
  std::atomic<std::size_t> next{0};
  on_threads(kPrepareThreads, [&](int) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      std::istringstream fastq(requests[i].fastq);
      FastqReadStream stream(fastq, session.config().stream_batch);
      std::ostringstream sam;
      const PipelineResult result = session.run(stream, nullptr, &sam);
      std::string tsv;
      append_snps_tsv(tsv, result.calls);
      write_file(args.dir / request_name(i, "fq"), requests[i].fastq);
      write_file(args.dir / request_name(i, "tsv"), tsv);
      write_file(args.dir / request_name(i, "sam"), sam.str());
      evals[i] = evaluate_calls(result.calls, requests[i].truth);
    }
  });
  // tp fp fn per request; the measured run counts a failed request's
  // planted SNPs as missed.
  std::string eval_text;
  for (const auto& e : evals) {
    eval_text += std::to_string(e.tp) + " " + std::to_string(e.fp) + " " +
                 std::to_string(e.fn) + "\n";
  }
  write_file(args.dir / "eval.txt", eval_text);
}

/// One request as the load generator saw it.
struct RequestRecord {
  bool ok = false;
  double latency_ms = 0.0;  ///< due time -> MAP_DONE
  double client_ms = 0.0;   ///< send time -> MAP_DONE
  double late_ms = 0.0;     ///< send time - due time
  std::uint64_t reads = 0;
  int busy_answers = 0;
  int reconnects = 0;
  std::map<std::string, std::string> done;  ///< MAP_DONE keys
  std::string error;
};

struct StreamResult {
  std::vector<RequestRecord> records;
  double window_s = 0.0;
  double cpu_s = 0.0;
  int inflight_peak = 0;
};

/// Replays the open-loop schedule against `port` from kClients threads,
/// each request on a fresh connection (connect + handshake + MAP).
StreamResult run_stream(std::uint16_t port,
                        const std::vector<std::string>& requests,
                        const std::vector<std::string>& tsv,
                        const std::vector<std::string>& sam,
                        const std::vector<double>& schedule) {
  StreamResult sr;
  sr.records.resize(requests.size());
  std::atomic<std::size_t> next{0};
  std::atomic<int> inflight{0};
  std::atomic<int> peak{0};
  std::mutex last_mu;
  Clock::time_point last_done{};
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  on_threads(kClients, [&](int) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      RequestRecord& rec = sr.records[i];
      rec.reads = fastq_records(requests[i]);
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(schedule[i]));
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      rec.late_ms =
          std::chrono::duration<double, std::milli>(sent - due).count();
      const int now_inflight = inflight.fetch_add(1) + 1;
      int seen = peak.load();
      while (now_inflight > seen &&
             !peak.compare_exchange_weak(seen, now_inflight)) {
      }
      try {
        serve::ClientOptions options;
        options.port = port;
        options.name = "perfbench";
        serve::MappingClient mc(options);
        std::istringstream fastq(requests[i]);
        std::ostringstream tsv_out, sam_out;
        const serve::MapOutcome outcome = mc.map(fastq, tsv_out, &sam_out);
        const auto finished = Clock::now();
        rec.latency_ms =
            std::chrono::duration<double, std::milli>(finished - due).count();
        rec.client_ms =
            std::chrono::duration<double, std::milli>(finished - sent).count();
        rec.busy_answers = outcome.busy_answers;
        rec.reconnects = outcome.reconnects;
        rec.done = outcome.stats;
        rec.ok = !outcome.busy && tsv_out.str() == tsv[i] &&
                 sam_out.str() == sam[i];
        if (!rec.ok) rec.error = outcome.busy ? "BUSY" : "output mismatch";
        std::lock_guard<std::mutex> lock(last_mu);
        last_done = std::max(last_done, finished);
      } catch (const std::exception& e) {
        rec.error = e.what();
      }
      inflight.fetch_sub(1);
    }
  });
  sr.cpu_s = cpu_seconds() - cpu0;
  // The window runs from the schedule's origin to the last MAP_DONE, so a
  // growing backlog stretches it; with nothing completed it is the
  // schedule's own span.
  sr.window_s =
      last_done > t0
          ? std::chrono::duration<double>(last_done - t0).count()
          : static_cast<double>(requests.size()) / kRequestRate;
  sr.inflight_peak = peak.load();
  return sr;
}

double done_value(const RequestRecord& rec, const char* key) {
  const auto it = rec.done.find(key);
  return it == rec.done.end() ? 0.0 : std::stod(it->second);
}

/// Everything a serve-style workload is served by.
struct Serving {
  std::unique_ptr<serve::MappingServer> daemon;  ///< serve-amplicon
  std::vector<std::unique_ptr<serve::MappingServer>> shards;  ///< router
  std::unique_ptr<fleet::RouterServer> router;
  std::uint16_t port() const {
    return router ? router->port() : daemon->port();
  }
  void reset() {
    router.reset();
    shards.clear();
    daemon.reset();
  }
};

int measure_requests(const Args& args) {
  const PipelineConfig config = workload_config(args.workload);
  const bool routed = args.workload == "router-amplicon";
  serve::ServeOptions serve_options;
  serve_options.digest_ring_capacity = 4096;

  std::unique_ptr<Genome> genome;
  Serving serving;
  std::vector<double> index_times;
  const double setup_s = timed_setups(
      args.dir / "reference.fa", genome, [&] { serving.reset(); },
      [&](const Genome& g) {
        if (!routed) {
          serving.daemon =
              std::make_unique<serve::MappingServer>(g, config, serve_options);
          return;
        }
        fleet::RouterOptions router_options;
        for (int s = 0; s < 2; ++s) {
          serve::ServeOptions shard_options = serve_options;
          shard_options.shard_index = s;
          shard_options.shard_count = 2;
          serving.shards.push_back(std::make_unique<serve::MappingServer>(
              g, config, shard_options));
          router_options.backends.push_back(
              fleet::ShardBackend{"127.0.0.1", serving.shards.back()->port()});
        }
        serving.router =
            std::make_unique<fleet::RouterServer>(g, config, router_options);
      },
      index_times);
  if (serving.daemon) serving.daemon->start();
  for (auto& shard : serving.shards) shard->start();
  if (serving.router) serving.router->start();

  std::vector<std::string> requests, tsv, sam;
  for (std::size_t i = 0; fs::exists(args.dir / request_name(i, "fq")); ++i) {
    requests.push_back(read_file(args.dir / request_name(i, "fq")));
    tsv.push_back(read_file(args.dir / request_name(i, "tsv")));
    sam.push_back(read_file(args.dir / request_name(i, "sam")));
  }
  std::vector<double> schedule;
  {
    std::ifstream in(args.dir / "schedule.txt");
    for (double t; in >> t;) schedule.push_back(t);
  }
  if (schedule.size() != requests.size() || requests.empty()) {
    throw std::runtime_error("prepared request set is incomplete");
  }

  const StreamResult sr = run_stream(serving.port(), requests, tsv, sam,
                                     schedule);
  Outcome out;
  out.attempted = requests.size();
  double reads_ok = 0.0;
  std::vector<double> latency;
  for (std::size_t i = 0; i < sr.records.size(); ++i) {
    const RequestRecord& rec = sr.records[i];
    // A failed request counts as missing every latency limit.
    latency.push_back(rec.ok ? rec.latency_ms
                             : std::numeric_limits<double>::infinity());
    if (rec.ok) {
      reads_ok += static_cast<double>(rec.reads);
    } else {
      ++out.failed;
      std::fprintf(stderr, "perfbench: %s request %zu failed: %s\n",
                   args.workload.c_str(), i, rec.error.c_str());
    }
  }
  double reads_all = 0.0;
  for (const auto& rec : sr.records) {
    reads_all += static_cast<double>(rec.reads);
  }

  Metrics& m = out.metrics;
  if (!args.trace) {
    std::uint64_t tp = 0, fp = 0, fn = 0;
    std::ifstream in(args.dir / "eval.txt");
    for (const RequestRecord& rec : sr.records) {
      std::uint64_t a = 0, b = 0, c = 0;
      in >> a >> b >> c;
      if (rec.ok) {
        tp += a;
        fp += b;
        fn += c;
      } else {
        fn += a + c;  // its calls never reached the client
      }
    }
    m.add("setup_s", setup_s, "s");
    m.add("reads_per_s", reads_ok / sr.window_s, "reads/s");
    m.add("cpu_s_per_kread", sr.cpu_s / (reads_all / 1000.0), "s");
    m.add("req_p50_ms", require_percentile(latency, 0.5, "request latency"),
          "ms");
    m.add("req_p90_ms", require_percentile(latency, 0.9, "request latency"),
          "ms");
    m.add("ok_ratio",
          static_cast<double>(out.attempted - out.failed) /
              static_cast<double>(out.attempted),
          "ratio");
    EvalResult eval;
    eval.tp = tp;
    eval.fp = fp;
    eval.fn = fn;
    add_eval(m, eval);
    return emit(args, out);
  }

  // Traced run: the program's own counters for the stream just served ...
  std::vector<double> admission_ms, upload_ms, server_ms, wire_ms, late_ms;
  double map_stage_s = 0.0, format_s = 0.0, splice_s = 0.0;
  double upload_bytes = 0.0, result_bytes = 0.0, router_candidates = 0.0;
  double busy = 0.0, reconnects = 0.0;
  for (const RequestRecord& rec : sr.records) {
    late_ms.push_back(rec.late_ms);
    busy += rec.busy_answers;
    reconnects += rec.reconnects;
    if (!rec.ok) continue;
    const double total_ms = 1e3 * done_value(rec, "total_seconds");
    admission_ms.push_back(1e3 * done_value(rec, "admission_wait_seconds"));
    upload_ms.push_back(1e3 * done_value(rec, "upload_wait_seconds"));
    server_ms.push_back(total_ms);
    wire_ms.push_back(rec.client_ms - total_ms);
    map_stage_s += done_value(rec, "map_stage_seconds");
    format_s += done_value(rec, "format_seconds");
    splice_s += done_value(rec, "splice_seconds");
    upload_bytes += done_value(rec, "upload_bytes");
    result_bytes += done_value(rec, "result_bytes");
    router_candidates += done_value(rec, "candidates_evaluated");
  }
  if (routed) {
    std::vector<double> shard_ms;
    double partial_bytes = 0.0;
    for (const auto& shard : serving.shards) {
      for (const auto& d : shard->digests().snapshot()) {
        shard_ms.push_back(1e3 * d.total_seconds);
      }
      partial_bytes += static_cast<double>(shard->stats().bytes_sent);
    }
    m.add("fleet.router_ms", require_percentile(server_ms, 0.5, "router"),
          "ms");
    m.add("fleet.shard_ms", require_percentile(shard_ms, 0.5, "shards"),
          "ms");
    m.add("fleet.partial_bytes_per_read", partial_bytes / reads_all, "bytes");
    m.add("fleet.candidates_per_read", router_candidates / reads_all,
          "count");
  } else {
    add_zero(m, kFleetLayers);
  }
  m.add("serve.admission_wait_ms",
        require_percentile(admission_ms, 0.9, "admission wait"), "ms");
  m.add("serve.upload_wait_ms",
        require_percentile(upload_ms, 0.9, "upload wait"), "ms");
  m.add("serve.server_ms", require_percentile(server_ms, 0.5, "server time"),
        "ms");
  m.add("serve.wire_ms", require_percentile(wire_ms, 0.5, "wire time"), "ms");
  m.add("serve.result_bytes_per_read", result_bytes / reads_all, "bytes");
  m.add("serve.upload_bytes_per_read", upload_bytes / reads_all, "bytes");
  m.add("serve.busy_answers", busy, "count");
  m.add("serve.reconnects", reconnects, "count");
  m.add("serve.inflight_peak", sr.inflight_peak, "count");
  m.add("serve.gen_late_ms", require_percentile(late_ms, 0.9, "lateness"),
        "ms");
  m.add("core.map_stage_s", map_stage_s, "s");
  m.add("core.batch_wait_s", 0.0, "s");  // threads=1: no decode->map queue
  m.add("core.format_s", format_s, "s");
  m.add("core.splice_s", splice_s, "s");
  m.add("index.build_s", median(index_times), "s");
  double resident = 0.0;
  if (serving.daemon) {
    resident =
        static_cast<double>(serving.daemon->registry().resident_bytes());
  }
  for (const auto& shard : serving.shards) {
    resident += static_cast<double>(shard->registry().resident_bytes());
  }
  m.add("index.bytes", resident, "bytes");
  serving.reset();

  // ... then the same requests through the layer pass, each on one thread
  // as the daemon maps it, against a whole-genome session.  Each must
  // reproduce its offline answer; an untraced session run of the same
  // request beside it gives the tracing overhead.  Requests are spread
  // over kPrepareThreads threads to keep the traced run short.
  const MappingSession session(*genome, config);
  std::vector<Ledger> ledgers(requests.size());
  std::vector<double> session_s(requests.size());
  std::vector<char> matches(requests.size(), 0);
  std::atomic<std::size_t> next{0};
  on_threads(kPrepareThreads, [&](int) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      std::istringstream fastq(requests[i]);
      matches[i] = layer_pass(session, fastq, 1, ledgers[i]) == tsv[i];
      std::istringstream again(requests[i]);
      FastqReadStream stream(again, config.stream_batch);
      Timer t;
      (void)session.run(stream);
      session_s[i] = t.seconds();
    }
  });
  Ledger ledger;
  double layer_total = 0.0, session_total = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ledger.add(ledgers[i]);
    layer_total += ledgers[i].wall_s;
    session_total += session_s[i];
    if (!matches[i]) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: request %zu: layer pass TSV differs "
                   "from the offline answer\n", i);
    }
  }
  add_ledger(m, ledger, reads_all);
  m.add("trace.overhead_ratio", session_total / layer_total, "ratio");
  return emit(args, out);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  die("refusing to run from an unoptimised build of the benchmark");
#endif
  const std::string build_type = obs::build_info().build_type;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    die("refusing to run from a '" + build_type + "' build of the library");
  }
  set_log_level(LogLevel::kWarn);
  try {
    const Args args = parse_args(argc, argv);
    if (args.phase == "prepare") {
      fs::create_directories(args.dir);
      const perfbench::Reference ref = perfbench::make_reference(args.seed);
      write_file(args.dir / "reference.fa",
                 perfbench::reference_fasta(ref.genome));
      write_catalog_file((args.dir / "truth.catalog").string(), ref.truth);
      if (args.workload == "batch-2m") {
        prepare_batch(args, ref);
      } else {
        prepare_requests(args, ref);
      }
      return 0;
    }
    if (args.workload != "batch-2m") return measure_requests(args);
    return measure_batch(
        args, read_catalog_file((args.dir / "truth.catalog").string()));
  } catch (const std::exception& e) {
    die(e.what());
  }
}
