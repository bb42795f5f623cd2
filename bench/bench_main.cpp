// Custom google-benchmark main for the ablation benches: peels off the
// shared observability flags (--trace-out / --metrics-out) before gbench
// parses the remainder, and stamps the resolved SIMD dispatch level into
// the export context so a --metrics-out file carries the same identity
// fields (host, cpus, build, SIMD level) as the committed BENCH_*.json
// gbench outputs.  The JSON context's `library_build_type` describes the
// google-benchmark library; `gnumap_build_type` is this binary's own.
#include <benchmark/benchmark.h>

#include "gnumap/obs/build_info.hpp"
#include "gnumap/obs/obs_cli.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/phmm/batched.hpp"

int main(int argc, char** argv) {
  gnumap::obs::strip_cli_flags(argc, argv);
  gnumap::obs::set_trace_metadata(
      "simd_level",
      gnumap::phmm::simd_level_name(gnumap::phmm::resolve_simd_level()));
  benchmark::AddCustomContext("gnumap_build_type",
                              gnumap::obs::build_info().build_type);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
