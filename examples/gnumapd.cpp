// gnumapd — long-lived mapping service over a hot index.
//
// Loads one reference and builds its hash index once (or mmaps a
// gnumap_index file), then serves MAP requests over a framed TCP protocol
// (src/gnumap/serve/wire.hpp) until stopped.  Results are byte-identical to
// gnumap_snp_cli on the same reads: both run the identical MappingSession.
//
//   gnumapd --ref genome.fa [options]
//   gnumapd --index genome.gidx [options]
//
// Options:
//   --shard I/N         serve shard I of N of the genome (fleet router
//                       backend); --shard-max-read-len N sizes its margin
//   --route HOST:PORT[,HOST:PORT...]  run as the shard router instead
//   --port N            TCP port (default 0 = pick an ephemeral port)
//   --port-file FILE    write the bound port to FILE once listening
//   --bind-any          listen on 0.0.0.0 instead of loopback
//   --admin-port N      embedded admin HTTP endpoint (/metrics /healthz
//                       /statusz /tracez; admin_http.hpp); off unless
//                       given, 0 = pick an ephemeral port
//   --admin-port-file FILE  write the bound admin port to FILE
//   --max-connections N concurrent connections (default 16)
//   --admission-reads N admission window: total in-flight reads (default 1M)
//   --per-conn-reads N  per-connection share of the window (default 0 = all)
//   --io-timeout-ms N   per-frame socket deadline (default 30000)
//   --request-timeout-ms N  whole-request deadline (default 300000, 0 = off;
//                       the tighter of this and the client's MAP_BEGIN
//                       deadline wins)
//   --busy-retry-ms N   base BUSY retry hint (default 250); scaled by queue
//                       depth up to --busy-retry-max-ms (default 10000)
//   --max-conn-seconds S  per-connection lifetime budget (0 = unlimited)
//   --max-conn-bytes N  per-connection receive budget (0 = unlimited)
//   --fault-plan SPEC   deterministic wire fault injection for chaos drills
//                       (fault_shim.hpp grammar, e.g. "corrupt@4096,
//                       stall@0:250,disconnect@65536"); defaults to the
//                       GNUMAP_WIRE_FAULT_PLAN environment variable
//   --alpha X --fdr Q --ploidy 1|2 --kmer K --accum KIND --threads N
//   --batch N --queue-depth N --output-buffer-bytes N --min-coverage X
//                       (as in gnumap_snp_cli)
//   --quiet             suppress progress logging
//   --trace-out FILE --metrics-out FILE          (flushed on exit)
//
// SIGINT/SIGTERM begin a graceful drain: the listener stops accepting,
// in-flight requests finish, and the process exits through the normal
// path, so --trace-out/--metrics-out files are still written.  A second
// signal flushes those artifacts immediately and exits with the signal's
// default disposition (an impatient operator still gets the artifacts).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gnumap/serve/fault_shim.hpp"

#include "gnumap/core/snp_caller.hpp"
#include "gnumap/fleet/index_file.hpp"
#include "gnumap/fleet/router.hpp"
#include "gnumap/io/fasta.hpp"
#include "gnumap/obs/obs_cli.hpp"
#include "gnumap/serve/server.hpp"
#include "gnumap/util/error.hpp"
#include "gnumap/util/log.hpp"
#include "gnumap/util/string_util.hpp"

using namespace gnumap;

namespace {

std::atomic<serve::MappingServer*> g_server{nullptr};
std::atomic<fleet::RouterServer*> g_router{nullptr};

// Only lock-free atomic ops on the drain path: store to g_server happens
// before the handlers are installed, and request_stop() is a relaxed
// atomic store.  A second signal means the operator is done waiting for
// the drain — then we adopt obs::install_signal_flush semantics: write
// the --trace-out/--metrics-out artifacts and die with the signal's
// default disposition, so even a cut-short run leaves its artifacts
// behind (asserted by scripts/serve_drain.sh).
void drain_handler(int sig) {
  auto* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr && !server->stopping()) {
    server->request_stop();
    return;
  }
  auto* router = g_router.load(std::memory_order_acquire);
  if (router != nullptr && !router->stopping()) {
    router->request_stop();
    return;
  }
  obs::flush_cli_outputs();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// "HOST:PORT" (host optional, defaults to loopback) → ShardBackend.
fleet::ShardBackend parse_backend(const std::string& value) {
  fleet::ShardBackend backend;
  const auto colon = value.rfind(':');
  if (colon == std::string::npos) {
    backend.port = static_cast<std::uint16_t>(parse_u64(value));
  } else {
    if (colon > 0) backend.host = value.substr(0, colon);
    backend.port =
        static_cast<std::uint16_t>(parse_u64(value.substr(colon + 1)));
  }
  return backend;
}

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s --ref genome.fa [options]\n"
               "       %s --index genome.gidx [options]\n"
               "       %s --route HOST:PORT[,HOST:PORT...] --ref genome.fa\n"
               "  --shard I/N          serve shard I of N of the genome\n"
               "  --shard-max-read-len N  margin sizing for shard mode\n"
               "  --port N --port-file FILE --bind-any\n"
               "  --admin-port N --admin-port-file FILE\n"
               "  --max-connections N --admission-reads N --per-conn-reads N\n"
               "  --io-timeout-ms N --request-timeout-ms N\n"
               "  --busy-retry-ms N --busy-retry-max-ms N\n"
               "  --max-conn-seconds S --max-conn-bytes N --fault-plan SPEC\n"
               "  --alpha X --fdr Q --ploidy 1|2 --kmer K\n"
               "  --accum norm|chardisc|centdisc --threads N\n"
               "  --batch N --queue-depth N --output-buffer-bytes N\n"
               "  --min-coverage X --quiet\n"
               "  --phmm-fp32 [--phmm-fp32-margin X]\n"
               "  --trace-out FILE --metrics-out FILE\n",
               argv0, argv0, argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  obs::strip_cli_flags(argc, argv);
  std::string ref_path, port_file, admin_port_file;
  std::string index_path;
  std::vector<fleet::ShardBackend> route_backends;
  int shard_index = -1;
  int shard_count = 0;
  std::uint32_t shard_max_read_len = 512;
  PipelineConfig config;
  config.index.k = 10;
  serve::ServeOptions options;
  bool quiet = false;
  // Chaos drills default to the environment so a supervisor can batter a
  // whole fleet without touching each unit's command line.
  std::string fault_spec;
  if (const char* env = std::getenv("GNUMAP_WIRE_FAULT_PLAN")) {
    fault_spec = env;
  }

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0], std::string(argv[i]) + " needs a value");
    return argv[++i];
  };

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--ref") {
        ref_path = need_value(i);
      } else if (arg == "--index") {
        index_path = need_value(i);
      } else if (arg == "--shard") {
        const std::string spec = need_value(i);
        const auto slash = spec.find('/');
        if (slash == std::string::npos) {
          usage(argv[0], "--shard wants I/N, e.g. --shard 0/2");
        }
        shard_index = static_cast<int>(parse_u64(spec.substr(0, slash)));
        shard_count = static_cast<int>(parse_u64(spec.substr(slash + 1)));
        if (shard_count <= 0 || shard_index < 0 ||
            shard_index >= shard_count) {
          usage(argv[0], "--shard I/N needs 0 <= I < N");
        }
      } else if (arg == "--shard-max-read-len") {
        shard_max_read_len =
            static_cast<std::uint32_t>(parse_u64(need_value(i)));
      } else if (arg == "--route") {
        // Comma-separated and repeatable both work.
        std::string list = need_value(i);
        std::size_t start = 0;
        while (start <= list.size()) {
          const auto comma = list.find(',', start);
          const std::string one =
              list.substr(start, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - start);
          if (!one.empty()) route_backends.push_back(parse_backend(one));
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
      } else if (arg == "--port") {
        options.port = static_cast<std::uint16_t>(parse_u64(need_value(i)));
      } else if (arg == "--port-file") {
        port_file = need_value(i);
      } else if (arg == "--bind-any") {
        options.bind_any = true;
      } else if (arg == "--admin-port") {
        options.admin_port = static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--admin-port-file") {
        admin_port_file = need_value(i);
      } else if (arg == "--max-connections") {
        options.max_connections = static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--admission-reads") {
        options.admission_reads = parse_u64(need_value(i));
      } else if (arg == "--per-conn-reads") {
        options.per_connection_reads = parse_u64(need_value(i));
      } else if (arg == "--io-timeout-ms") {
        options.io_timeout_ms = static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--request-timeout-ms") {
        options.request_timeout_ms =
            static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--busy-retry-ms") {
        options.busy_retry_ms =
            static_cast<std::uint32_t>(parse_u64(need_value(i)));
      } else if (arg == "--busy-retry-max-ms") {
        options.busy_retry_max_ms =
            static_cast<std::uint32_t>(parse_u64(need_value(i)));
      } else if (arg == "--max-conn-seconds") {
        options.max_connection_seconds = parse_double(need_value(i));
      } else if (arg == "--max-conn-bytes") {
        options.max_connection_bytes = parse_u64(need_value(i));
      } else if (arg == "--fault-plan") {
        fault_spec = need_value(i);
      } else if (arg == "--alpha") {
        config.alpha = parse_double(need_value(i));
      } else if (arg == "--fdr") {
        config.use_fdr = true;
        config.fdr_q = parse_double(need_value(i));
      } else if (arg == "--ploidy") {
        const auto p = parse_u64(need_value(i));
        if (p != 1 && p != 2) usage(argv[0], "--ploidy must be 1 or 2");
        config.ploidy = p == 1 ? Ploidy::kMonoploid : Ploidy::kDiploid;
      } else if (arg == "--kmer") {
        config.index.k = static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--accum") {
        config.accum_kind = accum_kind_from_string(need_value(i));
      } else if (arg == "--threads") {
        config.threads = static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--batch") {
        config.stream_batch = static_cast<std::uint32_t>(
            parse_u64(need_value(i)));
        if (config.stream_batch == 0) usage(argv[0], "--batch must be >= 1");
      } else if (arg == "--queue-depth") {
        config.queue_depth = static_cast<std::uint32_t>(
            parse_u64(need_value(i)));
        if (config.queue_depth == 0) {
          usage(argv[0], "--queue-depth must be >= 1");
        }
      } else if (arg == "--output-buffer-bytes") {
        config.output_buffer_bytes = parse_u64(need_value(i));
      } else if (arg == "--min-coverage") {
        config.min_coverage =
            checked_min_coverage(parse_double(need_value(i)));
      } else if (arg == "--phmm-fp32") {
        // Single-precision PHMM lanes; borderline mapping decisions are
        // recomputed in double so served calls match the default path.
        config.phmm_precision = phmm::Precision::kSingle;
      } else if (arg == "--phmm-fp32-margin") {
        config.phmm_fp32_margin = parse_double(need_value(i));
        if (config.phmm_fp32_margin < 0.0) {
          usage(argv[0], "--phmm-fp32-margin must be >= 0");
        }
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
      } else {
        usage(argv[0], "unknown option: " + arg);
      }
    }
    if (!fault_spec.empty()) {
      options.fault_plan = serve::WireFaultPlan::parse(fault_spec);
    }
    set_log_level(quiet ? LogLevel::kWarn : LogLevel::kInfo);

    // Router mode: scatter/gather over backend shards.  The genome is
    // needed only for SAM headers and SNP calling — no index is built.
    if (!route_backends.empty()) {
      if (shard_index >= 0) {
        usage(argv[0], "--route and --shard are mutually exclusive");
      }
      std::unique_ptr<fleet::LoadedIndex> loaded;
      std::optional<Genome> fasta_genome;
      const Genome* genome = nullptr;
      if (!index_path.empty()) {
        loaded = std::make_unique<fleet::LoadedIndex>(
            fleet::load_index_file(index_path));
        genome = &loaded->genome;
      } else if (!ref_path.empty()) {
        fasta_genome.emplace(genome_from_fasta_file(ref_path));
        genome = &*fasta_genome;
      } else {
        usage(argv[0], "router mode needs --ref or --index for the genome");
      }
      fleet::RouterOptions ropt;
      ropt.port = options.port;
      ropt.bind_any = options.bind_any;
      ropt.io_timeout_ms = options.io_timeout_ms;
      ropt.max_frame_bytes = options.max_frame_bytes;
      ropt.backends = route_backends;
      fleet::RouterServer router(*genome, config, ropt);
      if (!port_file.empty()) {
        std::ofstream out(port_file);
        if (!out) throw ParseError("cannot write port file: " + port_file);
        out << router.port() << "\n";
      }
      g_router.store(&router, std::memory_order_release);
      std::signal(SIGINT, drain_handler);
      std::signal(SIGTERM, drain_handler);
      router.run();
      g_router.store(nullptr, std::memory_order_release);
      GNUMAP_LOG(kInfo) << "gnumapd: router drained";
      obs::flush_cli_outputs();
      return 0;
    }

    options.shard_index = shard_index;
    options.shard_count = shard_count;
    options.shard_max_read_len = shard_max_read_len;

    // --index mmaps the genome and its index; --ref builds the index here.
    std::optional<Genome> reference;
    std::unique_ptr<serve::MappingServer> server;
    if (!index_path.empty()) {
      server =
          std::make_unique<serve::MappingServer>(index_path, config, options);
    } else {
      if (ref_path.empty()) usage(argv[0], "--ref or --index is required");
      reference.emplace(genome_from_fasta_file(ref_path));
      server =
          std::make_unique<serve::MappingServer>(*reference, config, options);
    }

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out) throw ParseError("cannot write port file: " + port_file);
      out << server->port() << "\n";
    }
    if (!admin_port_file.empty()) {
      if (server->admin_port() < 0) {
        throw ParseError("--admin-port-file needs --admin-port");
      }
      std::ofstream out(admin_port_file);
      if (!out) {
        throw ParseError("cannot write admin port file: " + admin_port_file);
      }
      out << server->admin_port() << "\n";
    }

    g_server.store(server.get(), std::memory_order_release);
    std::signal(SIGINT, drain_handler);
    std::signal(SIGTERM, drain_handler);

    server->run();  // returns after a drain (signal or SHUTDOWN frame)

    g_server.store(nullptr, std::memory_order_release);
    const auto stats = server->stats();
    GNUMAP_LOG(kInfo) << "gnumapd: drained after " << stats.requests_total
                      << " requests (" << stats.reads_total << " reads, "
                      << stats.requests_rejected << " rejected, "
                      << stats.requests_failed << " failed)";
    obs::flush_cli_outputs();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "gnumapd: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gnumapd: internal error: %s\n", e.what());
    return 1;
  }
}
