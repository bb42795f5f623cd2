// bench_pipeline_stream — monolithic (load-then-map) vs streaming pipeline.
//
// For three read counts, runs the same FASTQ workload two ways:
//
//  * monolithic: read_fastq_file into one std::vector<Read>, then map — the
//    pre-streaming shape, peak read memory O(dataset);
//  * streaming:  FastqReadStream pulled by the staged pipeline — peak read
//    memory O((queue_depth + threads) x stream_batch), IO overlapping the
//    SIMD PHMM sweeps.
//
// A second section measures drain scaling: the same SAM-heavy workload at
// several thread counts, formatted in the mapper workers while the drain
// only splices bytes.  SAM goes to a byte-counting null stream so rendering
// cost is measured without disk noise.  The split timings (format_seconds /
// splice_seconds) land in BENCH_pipeline.json; the claim is that splice
// stays a small share of the run at high thread counts.
//
// Emits BENCH_pipeline.json (reads/sec, peak RSS, in-flight peak per run)
// next to the table it prints, with the host it ran on (cores, build type,
// 1-minute load average at the start) so a baseline's provenance shows.
// Peak RSS is VmHWM from /proc/self/status, reset between phases via
// /proc/self/clear_refs where the kernel allows; when the reset is
// unavailable VmHWM is monotonic and later phases inherit earlier peaks
// (flagged in the JSON).
//
// Usage: bench_pipeline_stream [threads] [genome_bp]
//        (--metrics-out FILE / --trace-out FILE via the common obs flags)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gnumap/core/pipeline.hpp"
#include "gnumap/io/fastq.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/obs/build_info.hpp"
#include "gnumap/obs/obs_cli.hpp"
#include "gnumap/util/timer.hpp"

using namespace gnumap;

namespace {

std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

/// Resets the VmHWM high-water mark to the current RSS.  Returns false when
/// the kernel refuses (then VmHWM carries earlier phases' peaks forward).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  return static_cast<bool>(clear);
}

struct RunResult {
  std::string mode;
  std::uint64_t reads = 0;
  double seconds = 0.0;
  std::uint64_t peak_rss = 0;
  std::uint64_t in_flight_peak = 0;
  std::uint64_t calls = 0;
};

/// Swallows SAM bytes while counting them: rendering cost without disk IO.
class CountingNullBuf : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int overflow(int ch) override {
    ++bytes;
    return ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

struct DrainRun {
  int threads = 0;
  std::string mode;
  std::uint64_t reads = 0;
  double seconds = 0.0;
  double format_seconds = 0.0;
  double splice_seconds = 0.0;
  std::uint64_t output_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  gnumap::obs::strip_cli_flags(argc, argv);
  const int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t genome_bp =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200'000;
  const double coverages[] = {3.0, 6.0, 12.0};

  PipelineConfig config = bench::default_pipeline_config();
  config.threads = threads;
  double load_1m = -1.0;  // -1 when getloadavg is unavailable
  (void)getloadavg(&load_1m, 1);

  const bool rss_resets = reset_peak_rss();
  std::printf("pipeline stream bench: %.2f Mbp genome, threads=%d, "
              "batch=%u, queue_depth=%u%s\n\n",
              static_cast<double>(genome_bp) / 1e6, threads,
              config.stream_batch, config.queue_depth,
              rss_resets ? "" : " (VmHWM reset unavailable: RSS is a "
                                "monotonic upper bound)");
  std::printf("%-9s %-11s %10s %9s %12s %14s %7s\n", "reads", "mode",
              "seconds", "reads/s", "peak RSS", "in-flight peak", "calls");
  bench::print_rule();

  std::vector<RunResult> results;
  for (const double coverage : coverages) {
    bench::WorkloadOptions options;
    options.genome_length = genome_bp;
    options.coverage = coverage;
    const bench::Workload w = bench::make_workload(options);

    // One FASTQ file feeds both shapes, like a real run would.
    const std::string fastq_path =
        "bench_stream_" + std::to_string(w.reads.size()) + ".fastq";
    {
      std::ofstream out(fastq_path);
      write_fastq(out, w.reads);
    }

    for (const bool streaming : {false, true}) {
      reset_peak_rss();
      RunResult run;
      run.mode = streaming ? "streaming" : "monolithic";
      run.reads = w.reads.size();
      Timer timer;
      if (streaming) {
        FastqReadStream stream(fastq_path, config.stream_batch);
        const auto result =
            run_pipeline_stream(w.reference, stream, config);
        run.in_flight_peak = result.reads_in_flight_peak;
        run.calls = result.calls.size();
      } else {
        const auto reads = read_fastq_file(fastq_path);
        const auto result = run_pipeline(w.reference, reads, config);
        run.in_flight_peak = result.reads_in_flight_peak;
        run.calls = result.calls.size();
      }
      run.seconds = timer.seconds();
      run.peak_rss = peak_rss_bytes();
      std::printf("%-9zu %-11s %9.2fs %9.0f %9.1f MB %14llu %7llu\n",
                  static_cast<std::size_t>(run.reads), run.mode.c_str(),
                  run.seconds,
                  static_cast<double>(run.reads) / run.seconds,
                  static_cast<double>(run.peak_rss) / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(run.in_flight_peak),
                  static_cast<unsigned long long>(run.calls));
      results.push_back(run);
    }
    std::remove(fastq_path.c_str());
  }

  // --- Drain scaling: who pays for output formatting? ---------------------
  // SAM rendering (with per-record Viterbi) runs in the workers; only the
  // byte splice is left on the single drain thread.
  std::printf("\ndrain scaling (SAM to null sink, %.2f Mbp genome)\n",
              static_cast<double>(genome_bp) / 1e6);
  std::printf("%-8s %-13s %9s %9s %10s %10s %12s\n", "threads", "mode",
              "seconds", "reads/s", "format s", "splice s", "output MB");
  bench::print_rule();

  bench::WorkloadOptions drain_options;
  drain_options.genome_length = genome_bp;
  drain_options.coverage = 12.0;
  const bench::Workload drain_w = bench::make_workload(drain_options);

  std::vector<DrainRun> drain_runs;
  for (const int t : {1, 2, 4, 8}) {
    PipelineConfig drain_config = bench::default_pipeline_config();
    drain_config.threads = t;
    drain_config.min_parallel_reads = 0;  // staged path at every size

    CountingNullBuf null_buf;
    std::ostream sam_sink(&null_buf);
    Timer timer;
    const auto result = run_pipeline_with_accumulator(
        drain_w.reference, drain_w.reads, drain_config, nullptr, &sam_sink);
    DrainRun run;
    run.threads = t;
    run.mode = "worker-format";
    run.reads = drain_w.reads.size();
    run.seconds = timer.seconds();
    run.format_seconds = result.format_seconds;
    run.splice_seconds = result.splice_seconds;
    run.output_bytes = result.output_bytes;
    std::printf("%-8d %-13s %8.2fs %9.0f %9.3fs %9.3fs %9.1f MB\n", t,
                run.mode.c_str(), run.seconds,
                static_cast<double>(run.reads) / run.seconds,
                run.format_seconds, run.splice_seconds,
                static_cast<double>(run.output_bytes) / (1024.0 * 1024.0));
    drain_runs.push_back(run);
  }

  std::ofstream json("BENCH_pipeline.json");
  json << "{\n"
       << "  \"bench\": \"pipeline_stream\",\n"
       << "  \"genome_bp\": " << genome_bp << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"stream_batch\": " << config.stream_batch << ",\n"
       << "  \"queue_depth\": " << config.queue_depth << ",\n"
       << "  \"rss_reset_supported\": " << (rss_resets ? "true" : "false")
       << ",\n"
       << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": \"" << obs::build_info().build_type
       << "\", \"load_1m\": " << load_1m << "},\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& run = results[i];
    json << "    {\"reads\": " << run.reads << ", \"mode\": \"" << run.mode
         << "\", \"seconds\": " << run.seconds << ", \"reads_per_sec\": "
         << static_cast<double>(run.reads) / run.seconds
         << ", \"peak_rss_bytes\": " << run.peak_rss
         << ", \"reads_in_flight_peak\": " << run.in_flight_peak
         << ", \"calls\": " << run.calls << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"drain_scaling\": [\n";
  for (std::size_t i = 0; i < drain_runs.size(); ++i) {
    const DrainRun& run = drain_runs[i];
    json << "    {\"threads\": " << run.threads << ", \"mode\": \""
         << run.mode << "\", \"reads\": " << run.reads
         << ", \"seconds\": " << run.seconds << ", \"reads_per_sec\": "
         << static_cast<double>(run.reads) / run.seconds
         << ", \"format_seconds\": " << run.format_seconds
         << ", \"splice_seconds\": " << run.splice_seconds
         << ", \"output_bytes\": " << run.output_bytes << "}"
         << (i + 1 < drain_runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nwrote BENCH_pipeline.json\n");
  return 0;
}
