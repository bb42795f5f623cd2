// gnumap-client — CLI for the gnumapd mapping service.
//
//   gnumap_client --port N --reads reads.fastq --out calls.tsv [options]
//
// Options:
//   --host H            server address (default 127.0.0.1)
//   --port N            server port (or use --port-file)
//   --port-file FILE    read the port from FILE (written by gnumapd)
//   --reads FILE        FASTQ to map ("-" = stdin); .gz inputs are
//                       decompressed client-side, the wire carries plain text
//   --out FILE          SNP calls TSV (default: stdout); byte-identical to
//                       gnumap_snp_cli --out on the same reads
//   --sam FILE          also request SAM records (identical to --sam)
//   --stats             print the server's STATS snapshot and exit
//   --health            print the server's HEALTH snapshot and exit
//   --shutdown          ask the server to drain and exit
//   --phred64           read qualities use the legacy +64 offset
//   --busy-retries N    BUSY retries before giving up (default 10)
//   --connect-retries N refused/failed connects to retry (default 0)
//   --retries N         reconnect-and-retry attempts after a transport
//                       failure, when the input rewinds (default 2)
//   --deadline-ms N     hard wall-clock budget for the whole map() call,
//                       propagated to the server (default 0 = unlimited)
//   --backoff-base-ms N --backoff-max-ms N --backoff-total-ms N
//                       jittered exponential backoff schedule
//   --backoff-seed N    pin the backoff jitter (reproducible drills)
//   --trace-id N        pin the request trace id sent in MAP_BEGIN
//                       (default: random per request); pair with
//                       --trace-out and scripts/merge_traces.py to splice
//                       this client's timeline with the server's
//   --fault-plan SPEC   deterministic wire fault injection on this client's
//                       sends, for chaos drills against a healthy server
//                       (same grammar as gnumapd --fault-plan); also read
//                       from the GNUMAP_WIRE_FAULT_PLAN environment variable
//   --quiet             suppress the MAP_DONE summary
//
// Exit codes: 0 success, 1 error, 3 server stayed busy.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "gnumap/io/gzip_stream.hpp"
#include "gnumap/obs/obs_cli.hpp"
#include "gnumap/serve/client.hpp"
#include "gnumap/util/error.hpp"
#include "gnumap/util/string_util.hpp"

using namespace gnumap;

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s --port N --reads reads.fastq [options]\n"
               "  --host H --port-file FILE --out FILE --sam FILE\n"
               "  --stats --health --shutdown --phred64 --quiet\n"
               "  --busy-retries N --connect-retries N --retries N\n"
               "  --deadline-ms N --backoff-base-ms N --backoff-max-ms N\n"
               "  --backoff-total-ms N --backoff-seed N --fault-plan SPEC\n"
               "  --trace-id N\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  obs::strip_cli_flags(argc, argv);
  serve::ClientOptions options;
  std::string reads_path, out_path, sam_path, port_file;
  bool want_stats = false, want_health = false, want_shutdown = false;
  bool phred64 = false, quiet = false;
  // Same escape hatch as gnumapd: the environment seeds the plan, an
  // explicit --fault-plan overrides it.
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
      if (arg == "--host") {
        options.host = need_value(i);
      } else if (arg == "--port") {
        options.port = static_cast<std::uint16_t>(parse_u64(need_value(i)));
      } else if (arg == "--port-file") {
        port_file = need_value(i);
      } else if (arg == "--reads") {
        reads_path = need_value(i);
      } else if (arg == "--out") {
        out_path = need_value(i);
      } else if (arg == "--sam") {
        sam_path = need_value(i);
      } else if (arg == "--stats") {
        want_stats = true;
      } else if (arg == "--health") {
        want_health = true;
      } else if (arg == "--shutdown") {
        want_shutdown = true;
      } else if (arg == "--phred64") {
        phred64 = true;
      } else if (arg == "--busy-retries") {
        options.busy_retries = static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--connect-retries") {
        options.connect_retries = static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--retries") {
        options.transport_retries =
            static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--deadline-ms") {
        options.deadline_ms =
            static_cast<std::uint32_t>(parse_u64(need_value(i)));
      } else if (arg == "--backoff-base-ms") {
        options.backoff_base_ms =
            static_cast<std::uint32_t>(parse_u64(need_value(i)));
      } else if (arg == "--backoff-max-ms") {
        options.backoff_max_ms =
            static_cast<std::uint32_t>(parse_u64(need_value(i)));
      } else if (arg == "--backoff-total-ms") {
        options.backoff_total_ms =
            static_cast<std::uint32_t>(parse_u64(need_value(i)));
      } else if (arg == "--backoff-seed") {
        options.backoff_seed = parse_u64(need_value(i));
      } else if (arg == "--trace-id") {
        options.trace_id = parse_u64(need_value(i));
      } else if (arg == "--fault-plan") {
        fault_spec = need_value(i);
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
      } else {
        usage(argv[0], "unknown option: " + arg);
      }
    }
    if (!port_file.empty()) {
      std::ifstream in(port_file);
      std::uint64_t port = 0;
      if (!(in >> port)) {
        throw ParseError("cannot read port from: " + port_file);
      }
      options.port = static_cast<std::uint16_t>(port);
    }
    if (options.port == 0) usage(argv[0], "--port or --port-file required");
    if (!fault_spec.empty()) {
      options.fault_plan = serve::WireFaultPlan::parse(fault_spec);
    }
    if (reads_path.empty() && !want_stats && !want_health &&
        !want_shutdown) {
      usage(argv[0], "--reads (or --stats / --health / --shutdown) required");
    }

    serve::MappingClient client(options);

    if (!reads_path.empty()) {
      // The wire carries plain FASTQ text; gzip inputs are inflated here.
      std::unique_ptr<std::ifstream> file;
      std::istream* raw = &std::cin;
      if (reads_path != "-") {
        file = std::make_unique<std::ifstream>(reads_path,
                                               std::ios::binary);
        if (!*file) throw ParseError("cannot open reads: " + reads_path);
        raw = file.get();
      }
      std::unique_ptr<GzipInflateBuf> gz;
      std::unique_ptr<std::istream> inflated;
      std::istream* fastq = raw;
      if (looks_gzip(*raw)) {
        gz = std::make_unique<GzipInflateBuf>(*raw, reads_path);
        inflated = std::make_unique<std::istream>(gz.get());
        // Surface truncated/corrupt gzip as the original ParseError
        // instead of a silent short read (istream swallows streambuf
        // exceptions into badbit by default).
        inflated->exceptions(std::ios::badbit);
        fastq = inflated.get();
      }

      std::ofstream out_file, sam_file;
      std::ostream* tsv = &std::cout;
      if (!out_path.empty()) {
        out_file.open(out_path);
        if (!out_file) throw ParseError("cannot open output: " + out_path);
        tsv = &out_file;
      }
      std::ostream* sam = nullptr;
      if (!sam_path.empty()) {
        sam_file.open(sam_path);
        if (!sam_file) throw ParseError("cannot open SAM output: " + sam_path);
        sam = &sam_file;
      }

      const auto outcome = client.map(*fastq, *tsv, sam, phred64);
      if (outcome.busy) {
        std::fprintf(stderr, "gnumap_client: server busy, giving up\n");
        return 3;
      }
      if (!quiet) {
        std::ostringstream summary;
        for (const auto& [key, value] : outcome.stats) {
          summary << " " << key << "=" << value;
        }
        if (outcome.attempts > 1 || outcome.reconnects > 0) {
          summary << " attempts=" << outcome.attempts
                  << " busy_answers=" << outcome.busy_answers
                  << " reconnects=" << outcome.reconnects
                  << " backoff_ms=" << outcome.backoff_ms;
        }
        std::fprintf(stderr, "gnumap_client: done%s\n",
                     summary.str().c_str());
      }
    }

    if (want_stats) std::cout << client.stats();
    if (want_health) std::cout << client.health();
    if (want_shutdown) client.shutdown_server();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "gnumap_client: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gnumap_client: internal error: %s\n", e.what());
    return 1;
  }
}
