// Tests for the fleet subsystem: the mmap instant-start index file
// (round-trip bit-identity of seed hits, typed errors for every kind of
// file damage), a daemon serving an index file (byte identity with the
// offline run, and typed refusals for a file it cannot serve), and the
// scatter/gather shard router's byte-identity with a single whole-genome
// daemon.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gnumap/core/pipeline.hpp"
#include "gnumap/fleet/index_file.hpp"
#include "gnumap/fleet/partials.hpp"
#include "gnumap/fleet/resident_genome.hpp"
#include "gnumap/fleet/router.hpp"
#include "gnumap/genome/partition.hpp"
#include "gnumap/io/fastq.hpp"
#include "gnumap/io/read_codec.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/serve/client.hpp"
#include "gnumap/serve/server.hpp"
#include "gnumap/serve/socket.hpp"
#include "gnumap/serve/wire.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/error.hpp"

namespace gnumap {
namespace {

namespace fs = std::filesystem;

using serve::ClientOptions;
using serve::FrameType;
using serve::MappingClient;
using serve::MappingServer;
using serve::ServeOptions;
using serve::Socket;
using serve::WireError;
using serve::WireErrorCode;

// ---------------------------------------------------------------------------
// Helpers

Genome make_reference(std::uint64_t length, std::uint64_t seed = 42) {
  ReferenceGenOptions options;
  options.length = length;
  options.seed = seed;
  options.repeat_fraction = 0.0;
  options.n_fraction = 0.0;
  return generate_reference(options);
}

struct Workload {
  Genome ref;
  std::vector<Read> reads;
  std::string fastq;
};

Workload make_workload(std::uint64_t length = 20000, double coverage = 6.0) {
  Workload w;
  w.ref = make_reference(length);
  CatalogGenOptions catalog_options;
  catalog_options.count = 12;
  const SnpCatalog catalog = generate_catalog(w.ref, catalog_options);
  const Genome individual = apply_catalog(w.ref, catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = coverage;
  w.reads = strip_metadata(simulate_reads(individual, sim_options));
  std::ostringstream fastq;
  write_fastq(fastq, w.reads);
  w.fastq = fastq.str();
  return w;
}

PipelineConfig small_config() {
  PipelineConfig config;
  config.index.k = 9;
  config.alpha = 1e-4;
  config.threads = 2;
  config.stream_batch = 32;
  config.queue_depth = 2;
  config.min_parallel_reads = 0;
  return config;
}

ServeOptions test_options() {
  ServeOptions options;
  options.port = 0;  // ephemeral
  options.io_timeout_ms = 10'000;
  options.request_timeout_ms = 60'000;
  return options;
}

struct OfflineResult {
  std::string tsv;
  std::string sam;
};

OfflineResult offline_outputs(const Workload& w, const PipelineConfig& config) {
  VectorReadStream reads(w.reads, config.stream_batch);
  std::ostringstream sam;
  const PipelineResult result =
      run_pipeline_stream(w.ref, reads, config, nullptr, &sam);
  std::ostringstream tsv;
  write_snps_tsv(tsv, result.calls);
  return {tsv.str(), sam.str()};
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Copies `src` to `dst` with one byte flipped (damage injection).  XOR
/// guarantees the byte actually changes whatever its original value.
void copy_with_flip(const std::string& src, const std::string& dst,
                    std::size_t offset) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x55);
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out << bytes;
}

void copy_truncated(const std::string& src, const std::string& dst,
                    std::size_t keep_bytes) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes.resize(std::min(keep_bytes, bytes.size()));
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---------------------------------------------------------------------------
// Index file: round trip

TEST(IndexFile, RoundTripSeedHitsBitIdentical) {
  const Genome genome = make_reference(20000);
  HashIndexOptions options;
  options.k = 9;
  const HashIndex fresh(genome, options);

  const std::string path = temp_path("fleet_roundtrip.gidx");
  fleet::write_index_file(path, genome, fresh);
  const fleet::LoadedIndex loaded = fleet::load_index_file(path,
                                                           /*verify=*/true);

  // Genome facts survive the trip.
  EXPECT_EQ(loaded.genome.num_bases(), genome.num_bases());
  EXPECT_EQ(loaded.genome.padded_size(), genome.padded_size());
  ASSERT_EQ(loaded.genome.num_contigs(), genome.num_contigs());
  for (std::uint32_t c = 0; c < genome.num_contigs(); ++c) {
    EXPECT_EQ(loaded.genome.contig_name(c), genome.contig_name(c));
    EXPECT_EQ(loaded.genome.contig_size(c), genome.contig_size(c));
  }
  const auto a = loaded.genome.data();
  const auto b = genome.data();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));

  // Every k-mer's hit list and repeat mask match the fresh index bit for
  // bit — the mmap'ed index must seed identically to an in-process build.
  EXPECT_EQ(loaded.index.k(), fresh.k());
  EXPECT_EQ(loaded.index.num_entries(), fresh.num_entries());
  EXPECT_EQ(loaded.index.num_distinct_kmers(), fresh.num_distinct_kmers());
  for (Kmer kmer = 0; kmer < kmer_space(options.k); ++kmer) {
    const auto fresh_hits = fresh.lookup(kmer);
    const auto loaded_hits = loaded.index.lookup(kmer);
    ASSERT_EQ(fresh_hits.size(), loaded_hits.size()) << "kmer " << kmer;
    ASSERT_TRUE(std::equal(fresh_hits.begin(), fresh_hits.end(),
                           loaded_hits.begin()))
        << "kmer " << kmer;
    ASSERT_EQ(fresh.is_repeat_masked(kmer), loaded.index.is_repeat_masked(kmer))
        << "kmer " << kmer;
  }

  EXPECT_EQ(loaded.info.version, fleet::kIndexFileVersion);
  EXPECT_EQ(loaded.info.build_begin, 0u);
  EXPECT_EQ(loaded.info.build_end, 0u);
  EXPECT_EQ(loaded.info.file_bytes, fs::file_size(path));
}

TEST(IndexFile, ShardBuildRangeSurvivesRoundTrip) {
  const Genome genome = make_reference(20000);
  HashIndexOptions options;
  options.k = 9;
  const GenomePos begin = 4096, end = 12288;
  const HashIndex fresh = HashIndex::build_shard(genome, options, begin, end);

  const std::string path = temp_path("fleet_shard.gidx");
  fleet::write_index_file(path, genome, fresh, begin, end);
  const fleet::LoadedIndex loaded = fleet::load_index_file(path,
                                                           /*verify=*/true);
  EXPECT_EQ(loaded.info.build_begin, begin);
  EXPECT_EQ(loaded.info.build_end, end);
  EXPECT_EQ(loaded.index.num_entries(), fresh.num_entries());
  for (Kmer kmer = 0; kmer < kmer_space(options.k); ++kmer) {
    const auto fresh_hits = fresh.lookup(kmer);
    const auto loaded_hits = loaded.index.lookup(kmer);
    ASSERT_EQ(fresh_hits.size(), loaded_hits.size()) << "kmer " << kmer;
    ASSERT_TRUE(std::equal(fresh_hits.begin(), fresh_hits.end(),
                           loaded_hits.begin()))
        << "kmer " << kmer;
  }
}

// ---------------------------------------------------------------------------
// Index file: damage is typed, never UB

class IndexFileDamage : public ::testing::Test {
 protected:
  void SetUp() override {
    const Genome genome = make_reference(6000);
    HashIndexOptions options;
    options.k = 9;
    const HashIndex index(genome, options);
    // ctest runs the fixture's cases as separate parallel processes; a
    // shared scratch name would race on the atomic-rename publish.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = temp_path(std::string("fleet_damage_") + info->name() + ".gidx");
    fleet::write_index_file(path_, genome, index);
    file_bytes_ = static_cast<std::size_t>(fs::file_size(path_));
  }

  std::string path_;
  std::size_t file_bytes_ = 0;
};

TEST_F(IndexFileDamage, TruncationIsTyped) {
  const std::string dst = temp_path("fleet_truncated.gidx");
  // Empty, mid-header, header-only, mid-payload, and one-byte-short: every
  // prefix must fail typed instead of reading past the mapping.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{13}, std::size_t{80}, file_bytes_ / 2,
        file_bytes_ - 1}) {
    copy_truncated(path_, dst, keep);
    EXPECT_THROW(fleet::load_index_file(dst), ParseError)
        << "kept " << keep << " of " << file_bytes_ << " bytes";
  }
}

TEST_F(IndexFileDamage, BadMagicIsTyped) {
  const std::string dst = temp_path("fleet_badmagic.gidx");
  copy_with_flip(path_, dst, 0);
  EXPECT_THROW(fleet::load_index_file(dst), ParseError);
}

TEST_F(IndexFileDamage, WrongVersionIsTyped) {
  // The u32 version lives at offset 8; flipping it must fail even though
  // the rest of the header is intact (version gate or meta CRC, both
  // typed).
  const std::string dst = temp_path("fleet_badversion.gidx");
  copy_with_flip(path_, dst, 8);
  EXPECT_THROW(fleet::load_index_file(dst), ParseError);
}

TEST_F(IndexFileDamage, CorruptMetadataIsTyped) {
  // Damage inside the section table (just past the 80-byte header).
  const std::string dst = temp_path("fleet_badmeta.gidx");
  copy_with_flip(path_, dst, 92);
  EXPECT_THROW(fleet::load_index_file(dst), ParseError);
}

TEST_F(IndexFileDamage, CorruptPayloadCaughtByVerify) {
  // A flipped byte deep in a section body leaves the metadata intact; the
  // cheap load accepts it, the verifying load must not.
  const std::string dst = temp_path("fleet_badpayload.gidx");
  copy_with_flip(path_, dst, 80 + 5 * 24 + 512);
  EXPECT_THROW(fleet::load_index_file(dst, /*verify=*/true), ParseError);
}

// ---------------------------------------------------------------------------
// Read codec: one wire form, errors typed for each caller

/// Expects `fn` to throw WireError(kBadFrame).
template <typename Fn>
void expect_bad_frame(Fn&& fn, const std::string& label) {
  try {
    fn();
    ADD_FAILURE() << label << ": no exception";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kBadFrame) << label;
  }
}

/// Opens a shard-partials request on a live shard daemon, sends one
/// SHARD_READS frame carrying `payload`, and returns the code of the ERROR
/// frame the shard answers with.
WireErrorCode shard_error_for(std::uint16_t port, const std::string& payload) {
  Socket sock = serve::connect_tcp("127.0.0.1", port, 5'000);
  serve::write_frame(sock, FrameType::kHello,
                     serve::encode_hello(serve::kProtocolVersion, "codec"),
                     5'000);
  serve::MapBeginInfo begin;
  begin.flags = serve::kFlagShardPartials;
  serve::write_frame(sock, FrameType::kMapBegin, serve::encode_map_begin(begin),
                     5'000);
  serve::write_frame(sock, FrameType::kShardReads, payload, 5'000);
  for (;;) {
    auto frame = serve::read_frame(sock, serve::kDefaultMaxFrameBytes, 5'000);
    if (!frame.has_value()) {
      ADD_FAILURE() << "shard closed without an ERROR frame";
      return WireErrorCode::kInternal;
    }
    if (frame->type == FrameType::kError) {
      return serve::decode_error(frame->payload).first;
    }
  }
}

TEST(ReadCodec, MalformedPayloadsAreTypedForBothCallers) {
  // The layout is pinned byte for byte: SHARD_READS frames (the fleet
  // router -> shard path) and mpsim rank payloads carry exactly this.
  Read tiny;
  tiny.name = "r";
  tiny.bases = {0, 1};
  tiny.quals = {30, 31};
  const std::string tiny_bytes("\x01\x00\x00\x00\x01\x00r\x02\x00\x00\x00"
                               "\x00\x01\x1e\x1f",
                               15);
  EXPECT_EQ(io::encode_reads({&tiny, 1}), tiny_bytes);
  EXPECT_EQ(fleet::serialize_reads({&tiny, 1}), tiny_bytes);

  const Workload w = make_workload(8000, 1.0);
  const std::span<const Read> two(w.reads.data(), 2);
  const std::string good = io::encode_reads(two);
  const auto decoded = fleet::deserialize_reads(good);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[1].name, two[1].name);
  EXPECT_EQ(decoded[1].bases, two[1].bases);
  EXPECT_EQ(decoded[1].quals, two[1].quals);

  ServeOptions shard_options = test_options();
  shard_options.shard_index = 0;
  shard_options.shard_count = 2;
  MappingServer shard(w.ref, small_config(), shard_options);
  shard.start();

  struct Case {
    const char* label;
    std::string payload;
  };
  const Case cases[] = {
      {"truncated read count", good.substr(0, 2)},
      {"truncated in the bases", good.substr(0, good.size() - 3)},
      {"trailing bytes", good + "x"},
      {"name length past the end", std::string("\x01\x00\x00\x00\xff\xff", 6)},
  };
  for (const Case& c : cases) {
    // mpsim ranks decode with the io codec directly...
    EXPECT_THROW(io::decode_reads(c.payload), ParseError) << c.label;
    // ...the fleet path types the same failure for the wire...
    expect_bad_frame([&] { fleet::deserialize_reads(c.payload); }, c.label);
    // ...and a live shard answers it as kBadFrame.
    EXPECT_EQ(shard_error_for(shard.port(), c.payload),
              WireErrorCode::kBadFrame)
        << c.label;
  }

  // A name longer than the u16 length field cannot be encoded.
  Read long_name = tiny;
  long_name.name.assign(65536, 'n');
  EXPECT_THROW(io::encode_reads({&long_name, 1}), ParseError);
  expect_bad_frame([&] { fleet::serialize_reads({&long_name, 1}); },
                   "name over 65535 bytes");

  shard.request_stop();
  shard.wait();
}

// ---------------------------------------------------------------------------
// Router: byte identity with a single whole-genome daemon

TEST(Router, ScatterGatherIsByteIdenticalToSingleDaemon) {
  const Workload w = make_workload(24000);
  PipelineConfig config = small_config();
  const OfflineResult offline = offline_outputs(w, config);

  // Single whole-genome daemon.
  ServeOptions single_options = test_options();
  MappingServer single(w.ref, config, single_options);
  single.start();

  std::string single_tsv, single_sam;
  {
    ClientOptions client_options;
    client_options.port = single.port();
    MappingClient client(client_options);
    std::istringstream fastq(w.fastq);
    std::ostringstream tsv, sam;
    const auto outcome = client.map(fastq, tsv, &sam);
    ASSERT_FALSE(outcome.busy);
    single_tsv = tsv.str();
    single_sam = sam.str();
  }
  EXPECT_EQ(single_tsv, offline.tsv);
  EXPECT_EQ(single_sam, offline.sam);

  // Two shard backends, each owning half the genome, plus the router.
  ServeOptions shard0_options = test_options();
  shard0_options.shard_index = 0;
  shard0_options.shard_count = 2;
  ServeOptions shard1_options = test_options();
  shard1_options.shard_index = 1;
  shard1_options.shard_count = 2;
  MappingServer shard0(w.ref, config, shard0_options);
  MappingServer shard1(w.ref, config, shard1_options);
  shard0.start();
  shard1.start();

  fleet::RouterOptions router_options;
  router_options.backends.push_back({"127.0.0.1", shard0.port()});
  router_options.backends.push_back({"127.0.0.1", shard1.port()});
  fleet::RouterServer router(w.ref, config, router_options);
  router.start();

  std::string routed_tsv, routed_sam;
  {
    ClientOptions client_options;
    client_options.port = router.port();
    MappingClient client(client_options);
    std::istringstream fastq(w.fastq);
    std::ostringstream tsv, sam;
    const auto outcome = client.map(fastq, tsv, &sam);
    ASSERT_FALSE(outcome.busy);
    EXPECT_EQ(outcome.stats.at("router_shards"), "2");
    EXPECT_EQ(outcome.stats.at("reads_total"),
              std::to_string(w.reads.size()));
    routed_tsv = tsv.str();
    routed_sam = sam.str();
  }

  // The linchpin: scatter/gather must not change a single output byte.
  EXPECT_EQ(routed_tsv, single_tsv);
  EXPECT_EQ(routed_sam, single_sam);

  router.request_stop();
  router.wait();
  shard0.request_stop();
  shard1.request_stop();
  shard0.wait();
  shard1.wait();
  single.request_stop();
  single.wait();
}

TEST(Router, RejectsOlderAndNewerProtocolVersions) {
  // The router answers HELLO itself, before any fan-out, so a backend
  // that is never dialled suffices.
  const Genome genome = make_reference(8000);
  fleet::RouterOptions router_options;
  router_options.backends.push_back({"127.0.0.1", 1});
  fleet::RouterServer router(genome, small_config(), router_options);
  router.start();

  for (const std::uint16_t version :
       {static_cast<std::uint16_t>(serve::kProtocolVersion - 1),
        static_cast<std::uint16_t>(serve::kProtocolVersion + 1)}) {
    Socket sock = serve::connect_tcp("127.0.0.1", router.port(), 5'000);
    serve::write_frame(sock, FrameType::kHello,
                       serve::encode_hello(version, "other"), 5'000);
    auto reply = serve::read_frame(sock, serve::kDefaultMaxFrameBytes, 5'000);
    ASSERT_TRUE(reply.has_value()) << "HELLO v" << version;
    ASSERT_EQ(reply->type, FrameType::kError) << "HELLO v" << version;
    EXPECT_EQ(serve::decode_error(reply->payload).first,
              WireErrorCode::kBadVersion)
        << "HELLO v" << version;
  }

  // The one version is accepted.
  ClientOptions client_options;
  client_options.port = router.port();
  MappingClient client(client_options);
  EXPECT_NE(client.banner().find("gnumapd-router"), std::string::npos);
  client.close();

  router.request_stop();
  router.wait();
}

// ---------------------------------------------------------------------------
// Server: one genome from an index file

TEST(FleetServe, StatsCarryRegistryAndLoadTime) {
  // gnumapd --index: the daemon mmaps a gnumap_index file instead of
  // building the index, and must answer byte-identically to the offline
  // run over the same reference.
  const Workload w = make_workload(16000);
  const PipelineConfig config = small_config();
  const OfflineResult offline = offline_outputs(w, config);
  const std::string path = temp_path("fleet_serve.gidx");
  fleet::write_index_file(path, w.ref, HashIndex(w.ref, config.index));

  MappingServer server(path, config, test_options());
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv, sam;
  const auto outcome = client.map(fastq, tsv, &sam);
  ASSERT_FALSE(outcome.busy);
  EXPECT_EQ(tsv.str(), offline.tsv);
  EXPECT_EQ(sam.str(), offline.sam);
  EXPECT_NE(outcome.stats.find("index_load_seconds"), outcome.stats.end());

  // STATS carries the cold-start facts: the mapped file's size and how
  // long the load took.
  const auto stats = serve::parse_kv_lines(client.stats());
  EXPECT_EQ(stats.at("resident_bytes"), std::to_string(fs::file_size(path)));
  EXPECT_EQ(server.registry().resident_bytes(), fs::file_size(path));
  EXPECT_NE(stats.find("index_load_seconds"), stats.end());

  server.request_stop();
  server.wait();
}

/// A port nothing listens on right now.
std::uint16_t free_port() {
  serve::Listener probe(0, /*bind_any=*/false);
  return probe.port();
}

/// Serving `index_path` must fail with a typed ConfigError naming
/// `needle`, before the daemon binds its port: nothing answers on it
/// afterwards, and the port is free to bind again.
void expect_refused(const std::string& index_path,
                    const PipelineConfig& config, ServeOptions options,
                    const std::string& needle) {
  options.port = free_port();
  try {
    MappingServer server(index_path, config, options);
    ADD_FAILURE() << "served an index file it should refuse";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(serve::connect_tcp("127.0.0.1", options.port, 1'000),
               WireError);
  EXPECT_NO_THROW(serve::Listener(options.port, /*bind_any=*/false));
}

TEST(FleetServe, IndexFileWithOtherKIsRefused) {
  const Genome genome = make_reference(8000);
  PipelineConfig config = small_config();
  const std::string path = temp_path("fleet_k9.gidx");
  fleet::write_index_file(path, genome, HashIndex(genome, config.index));

  config.index.k = 10;
  expect_refused(path, config, test_options(), "built with k=9");
}

TEST(FleetServe, IndexFileForAnotherShardIsRefused) {
  const Genome genome = make_reference(16000);
  const PipelineConfig config = small_config();
  ServeOptions options = test_options();
  options.shard_count = 2;
  const auto segments = partition_genome(
      genome, 2, fleet::shard_margin(config, options.shard_max_read_len));
  const std::string path = temp_path("fleet_shard0of2.gidx");
  fleet::write_index_file(
      path, genome,
      HashIndex::build_shard(genome, config.index, segments[0].store_begin,
                             segments[0].store_end),
      segments[0].store_begin, segments[0].store_end);

  // Its own shard serves it...
  options.shard_index = 0;
  {
    MappingServer shard0(path, config, options);
    EXPECT_EQ(shard0.registry().core_begin(), segments[0].core_begin);
    EXPECT_EQ(shard0.registry().core_end(), segments[0].core_end);
  }
  // ...the other shard refuses it.
  options.shard_index = 1;
  expect_refused(path, config, options, "but shard 1/2 stores");
}

TEST(FleetServe, ShardIndexFileOnWholeGenomeDaemonIsRefused) {
  const Genome genome = make_reference(8000);
  const PipelineConfig config = small_config();
  const std::string path = temp_path("fleet_shard_whole.gidx");
  fleet::write_index_file(
      path, genome, HashIndex::build_shard(genome, config.index, 1024, 6144),
      1024, 6144);

  expect_refused(path, config, test_options(), "is a shard index");
}

}  // namespace
}  // namespace gnumap
