// gnumap_index — build the fleet "instant start" index file.
//
// Hashes a FASTA reference once, offline, and serializes the byte-encoded
// genome plus the finished HashIndex into the versioned, CRC-footed fleet
// index format (src/gnumap/fleet/index_file.hpp).  A cold gnumapd then
// mmap()s the file and serves in milliseconds instead of re-hashing.
//
//   gnumap_index --ref genome.fa --out genome.gidx [options]
//
// Options:
//   --ref FILE           FASTA reference (required)
//   --out FILE           output index file (required)
//   --kmer K             index k-mer length (default 10; must match the
//                        daemon's --kmer)
//   --max-positions N    repeat-mask threshold (default 1024)
//   --shard I/N          build shard I of N: the index covers the shard's
//                        store range (core + margin) and records it in the
//                        header so the daemon can validate the file against
//                        its own partition arithmetic
//   --shard-max-read-len N  longest read the shard margin absorbs
//                        (default 512; must match the daemon's)
//   --verify             re-load the written file with full payload CRC
//                        verification and compare shapes (slow; CI uses it)
//   --startup-json FILE  write {"build_seconds":..,"load_seconds":..,...}
//                        to FILE ("-" = stdout); scripts/bench_compare.py
//                        --startup consumes this to gate the >=10x
//                        mmap-vs-rebuild speedup
//   --quiet              suppress progress logging
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "gnumap/core/config.hpp"
#include "gnumap/fleet/index_file.hpp"
#include "gnumap/fleet/resident_genome.hpp"
#include "gnumap/genome/partition.hpp"
#include "gnumap/index/hash_index.hpp"
#include "gnumap/io/fasta.hpp"
#include "gnumap/util/error.hpp"
#include "gnumap/util/log.hpp"
#include "gnumap/util/string_util.hpp"
#include "gnumap/util/timer.hpp"

using namespace gnumap;

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s --ref genome.fa --out genome.gidx [options]\n"
               "  --kmer K --max-positions N\n"
               "  --shard I/N --shard-max-read-len N\n"
               "  --verify --startup-json FILE --quiet\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string ref_path, out_path, startup_json;
  HashIndexOptions index_options;
  int shard_index = -1;
  int shard_count = 0;
  std::uint32_t shard_max_read_len = 512;
  bool verify = false;
  bool quiet = false;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0], std::string(argv[i]) + " needs a value");
    return argv[++i];
  };

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--ref") {
        ref_path = need_value(i);
      } else if (arg == "--out") {
        out_path = need_value(i);
      } else if (arg == "--kmer") {
        index_options.k = static_cast<int>(parse_u64(need_value(i)));
      } else if (arg == "--max-positions") {
        index_options.max_positions =
            static_cast<std::uint32_t>(parse_u64(need_value(i)));
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
      } else if (arg == "--verify") {
        verify = true;
      } else if (arg == "--startup-json") {
        startup_json = need_value(i);
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
      } else {
        usage(argv[0], "unknown option: " + arg);
      }
    }
    if (ref_path.empty()) usage(argv[0], "--ref is required");
    if (out_path.empty()) usage(argv[0], "--out is required");
    set_log_level(quiet ? LogLevel::kWarn : LogLevel::kInfo);

    const Genome genome = genome_from_fasta_file(ref_path);

    // The shard margin must match the daemon's: it derives from the default
    // pipeline's window pad and seeder band (fleet/resident_genome.hpp).
    GenomePos build_begin = 0;
    GenomePos build_end = 0;
    if (shard_index >= 0) {
      PipelineConfig margin_config;
      const auto segments = partition_genome(
          genome, shard_count,
          fleet::shard_margin(margin_config, shard_max_read_len));
      build_begin = segments[static_cast<std::size_t>(shard_index)].store_begin;
      build_end = segments[static_cast<std::size_t>(shard_index)].store_end;
    }

    Timer build_timer;
    HashIndex index =
        shard_index >= 0
            ? HashIndex::build_shard(genome, index_options, build_begin,
                                     build_end)
            : HashIndex(genome, index_options);
    const double build_seconds = build_timer.seconds();
    GNUMAP_LOG(kInfo) << "gnumap_index: built " << index.num_entries()
                      << " entries over " << genome.num_bases()
                      << " bases in " << build_seconds << " s";

    fleet::write_index_file(out_path, genome, index, build_begin, build_end);

    // Time the plain mmap load — the instant start a cold daemon gets.
    // The verifying load faults in and checksums every payload page, so
    // it runs separately and never pollutes load_seconds.
    Timer load_timer;
    const fleet::LoadedIndex loaded = fleet::load_index_file(out_path);
    const double load_seconds = load_timer.seconds();
    if (verify) {
      const fleet::LoadedIndex checked =
          fleet::load_index_file(out_path, /*verify_payload=*/true);
      require(checked.index.num_entries() == index.num_entries(),
              "reloaded index entry count mismatch (file damaged?)");
    }
    require(loaded.index.num_entries() == index.num_entries(),
            "reloaded index entry count mismatch (file damaged?)");
    require(loaded.genome.num_bases() == genome.num_bases(),
            "reloaded genome base count mismatch (file damaged?)");
    GNUMAP_LOG(kInfo) << "gnumap_index: wrote " << loaded.info.file_bytes
                      << " bytes to " << out_path << "; reload"
                      << (verify ? " (payload-verified)" : "") << " took "
                      << load_seconds << " s";

    if (!startup_json.empty()) {
      std::string json = "{\"build_seconds\": " +
                         std::to_string(build_seconds) +
                         ", \"load_seconds\": " + std::to_string(load_seconds) +
                         ", \"file_bytes\": " +
                         std::to_string(loaded.info.file_bytes) +
                         ", \"index_entries\": " +
                         std::to_string(index.num_entries()) +
                         ", \"genome_bases\": " +
                         std::to_string(genome.num_bases()) +
                         ", \"verified\": " + (verify ? "true" : "false") +
                         "}\n";
      if (startup_json == "-") {
        std::fputs(json.c_str(), stdout);
      } else {
        std::ofstream out(startup_json);
        if (!out) {
          throw ParseError("cannot write startup json: " + startup_json);
        }
        out << json;
      }
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "gnumap_index: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gnumap_index: internal error: %s\n", e.what());
    return 1;
  }
}
