// gnumap_snp_cli — command-line SNP caller over FASTA/FASTQ files.
//
// The closest equivalent of the released GNUMAP-SNP module: point it at a
// reference and a read set, get a TSV (and optionally VCF) of called SNPs.
//
//   gnumap_snp_cli --ref genome.fa --reads reads.fastq [options]
//
// --reads also accepts gzip-compressed FASTQ (detected by content, so any
// extension works) when the build found zlib.
//
// Options:
//   --out FILE        TSV output (default: stdout)
//   --vcf FILE        also write VCF
//   --sam FILE        also write SAM alignments for every read
//   --alpha X         SNP-wise false-positive rate (default 1e-4)
//   --fdr Q           use Benjamini-Hochberg at level Q instead of --alpha
//   --ploidy N        1 = monoploid (default), 2 = diploid
//   --kmer K          mer size, 4..13 (default 10)
//   --accum KIND      norm | chardisc | centdisc (default norm)
//   --threads N       mapping threads (default 1)
//   --batch N         reads per streamed batch (default 256)
//   --queue-depth N   decoded batches buffered ahead of the mappers (default 4)
//   --output-buffer-bytes N  cap on worker-rendered output bytes parked in
//                     the splicer (0 = sized from batch/queue/threads)
//   --min-coverage X  minimum accumulated mass to test a site (default 3)
//   --phred64         read qualities use the legacy +64 offset
//   --quiet           suppress progress logging
//   --trace-out FILE  write a Chrome trace (chrome://tracing, Perfetto)
//   --metrics-out FILE  write metrics (JSON, or Prometheus for .prom/.txt)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "gnumap/core/pipeline.hpp"
#include "gnumap/core/snp_caller.hpp"
#include "gnumap/io/fasta.hpp"
#include "gnumap/io/gzip_stream.hpp"
#include "gnumap/io/quality.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/obs/obs_cli.hpp"
#include "gnumap/util/error.hpp"
#include "gnumap/util/log.hpp"
#include "gnumap/util/string_util.hpp"

using namespace gnumap;

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s --ref genome.fa --reads reads.fastq [options]\n"
               "  --out FILE --vcf FILE --alpha X --fdr Q --ploidy 1|2\n"
               "  --kmer K --accum norm|chardisc|centdisc --threads N\n"
               "  --batch N --queue-depth N --output-buffer-bytes N\n"
               "  --phmm-fp32 [--phmm-fp32-margin X] --phmm-bin-slack N\n"
               "  --min-coverage X --phred64 --quiet\n"
               "  --trace-out FILE --metrics-out FILE\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  obs::strip_cli_flags(argc, argv);
  obs::install_signal_flush();
  std::string ref_path, reads_path, out_path, vcf_path, sam_path;
  PipelineConfig config;
  config.index.k = 10;
  int phred_offset = kPhred33;
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
      } else if (arg == "--reads") {
        reads_path = need_value(i);
      } else if (arg == "--out") {
        out_path = need_value(i);
      } else if (arg == "--vcf") {
        vcf_path = need_value(i);
      } else if (arg == "--sam") {
        sam_path = need_value(i);
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
      } else if (arg == "--phmm-fp32") {
        // Single-precision PHMM lanes (2x lane count).  Borderline mapping
        // decisions are recomputed in double, so SNP calls match the
        // default path; see docs/KERNELS.md §8 for the accuracy model.
        config.phmm_precision = phmm::Precision::kSingle;
      } else if (arg == "--phmm-fp32-margin") {
        config.phmm_fp32_margin = parse_double(need_value(i));
        if (config.phmm_fp32_margin < 0.0) {
          usage(argv[0], "--phmm-fp32-margin must be >= 0");
        }
      } else if (arg == "--phmm-bin-slack") {
        config.phmm_bin_slack =
            static_cast<std::size_t>(parse_u64(need_value(i)));
      } else if (arg == "--min-coverage") {
        config.min_coverage =
            checked_min_coverage(parse_double(need_value(i)));
      } else if (arg == "--phred64") {
        phred_offset = kPhred64;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
      } else {
        usage(argv[0], "unknown option: " + arg);
      }
    }
    if (ref_path.empty() || reads_path.empty()) {
      usage(argv[0], "--ref and --reads are required");
    }
    set_log_level(quiet ? LogLevel::kWarn : LogLevel::kInfo);

    const Genome reference = genome_from_fasta_file(ref_path);
    GNUMAP_LOG(kInfo) << "loaded " << reference.num_bases() << " bases; "
                      << "streaming reads from " << reads_path;

    std::ofstream sam;
    if (!sam_path.empty()) {
      sam.open(sam_path);
      if (!sam) throw ParseError("cannot open SAM output: " + sam_path);
    }
    // The FASTQ is streamed, never materialized: peak read memory is
    // (queue_depth + threads) x batch reads whatever the file size.
    // Gzip-compressed inputs are detected by content and inflated inline.
    auto reads = open_fastq_read_stream(reads_path, config.stream_batch,
                                        phred_offset);
    const PipelineResult result = run_pipeline_stream(
        reference, *reads, config, nullptr, sam.is_open() ? &sam : nullptr);
    GNUMAP_LOG(kInfo) << "mapped " << result.stats.reads_mapped << "/"
                      << result.stats.reads_total << " reads in "
                      << result.batches_decoded << " batches; "
                      << result.calls.size() << " SNP calls";

    if (out_path.empty()) {
      write_snps_tsv(std::cout, result.calls);
    } else {
      write_snps_tsv_file(out_path, result.calls);
    }
    if (!vcf_path.empty()) {
      std::ofstream vcf(vcf_path);
      if (!vcf) throw ParseError("cannot open VCF output: " + vcf_path);
      write_snps_vcf(vcf, result.calls);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "gnumap_snp_cli: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gnumap_snp_cli: internal error: %s\n", e.what());
    return 1;
  }
}
