// Chaos harness for the serving stack: seeded wire fault plans driven
// through real sockets against a live server.  Covers the fault-shim
// grammar and injector mechanics, CRC frame integrity, client
// retry/backoff accounting, deadline propagation, watchdog eviction,
// overload shedding, and a concurrent seeded sweep asserting the
// byte-identity contract survives disconnects, corruption, and stalls.
//
// Every plan is seeded or literal, so a failure replays exactly; every
// test must terminate within the suite TIMEOUT even when a fault would
// naively wedge a thread.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gnumap/core/pipeline.hpp"
#include "gnumap/io/fastq.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/serve/client.hpp"
#include "gnumap/serve/fault_shim.hpp"
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

using serve::ClientOptions;
using serve::FrameType;
using serve::MappingClient;
using serve::MappingServer;
using serve::RandomWireFaultOptions;
using serve::ServeOptions;
using serve::Socket;
using serve::WireError;
using serve::WireErrorCode;
using serve::WireFaultInjector;
using serve::WireFaultPlan;

// ---------------------------------------------------------------------------
// Shared workload (expensive to simulate and to map offline: built once)

struct Workload {
  Genome ref;
  std::vector<Read> reads;
  std::string fastq;
  std::string tsv;  ///< offline pipeline output for byte-identity checks
  std::string sam;
};

PipelineConfig chaos_config() {
  PipelineConfig config;
  config.index.k = 9;
  config.alpha = 1e-4;
  config.threads = 2;
  config.stream_batch = 32;
  config.queue_depth = 2;
  config.min_parallel_reads = 0;
  return config;
}

Workload build_workload() {
  ReferenceGenOptions ref_options;
  ref_options.length = 20000;
  ref_options.repeat_fraction = 0.0;
  ref_options.n_fraction = 0.0;
  Workload w;
  w.ref = generate_reference(ref_options);
  CatalogGenOptions catalog_options;
  catalog_options.count = 12;
  const SnpCatalog catalog = generate_catalog(w.ref, catalog_options);
  const Genome individual = apply_catalog(w.ref, catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = 6.0;
  w.reads = strip_metadata(simulate_reads(individual, sim_options));
  std::ostringstream fastq;
  write_fastq(fastq, w.reads);
  w.fastq = fastq.str();

  const PipelineConfig config = chaos_config();
  VectorReadStream stream(w.reads, config.stream_batch);
  std::ostringstream sam;
  const PipelineResult result =
      run_pipeline_stream(w.ref, stream, config, nullptr, &sam);
  std::ostringstream tsv;
  write_snps_tsv(tsv, result.calls);
  w.tsv = tsv.str();
  w.sam = sam.str();
  return w;
}

const Workload& shared_workload() {
  static const Workload w = build_workload();
  return w;
}

ServeOptions chaos_server_options() {
  ServeOptions options;
  options.port = 0;
  options.io_timeout_ms = 10'000;
  options.request_timeout_ms = 60'000;
  return options;
}

/// Fast deterministic backoff so chaos runs stay inside the suite budget.
void pin_fast_backoff(ClientOptions& options, std::uint64_t seed) {
  options.backoff_base_ms = 10;
  options.backoff_max_ms = 100;
  options.backoff_seed = seed;
}

Socket raw_hello(std::uint16_t port) {
  Socket sock = serve::connect_tcp("127.0.0.1", port, 5'000);
  serve::write_frame(sock, FrameType::kHello,
                     serve::encode_hello(serve::kProtocolVersion,
                                         "chaos-test"),
                     5'000);
  auto reply = serve::read_frame(sock, serve::kDefaultMaxFrameBytes, 5'000);
  if (!reply.has_value() || reply->type != FrameType::kHelloOk) {
    throw WireError(WireErrorCode::kProtocol, "handshake failed in test");
  }
  return sock;
}

/// Reads frames until an ERROR arrives and returns its decoded code.
WireErrorCode expect_error_frame(Socket& sock, int timeout_ms = 10'000) {
  for (;;) {
    auto frame =
        serve::read_frame(sock, serve::kDefaultMaxFrameBytes, timeout_ms);
    if (!frame.has_value()) {
      ADD_FAILURE() << "connection closed without an ERROR frame";
      return WireErrorCode::kInternal;
    }
    if (frame->type == FrameType::kError) {
      return serve::decode_error(frame->payload).first;
    }
  }
}

// ---------------------------------------------------------------------------
// CRC32

TEST(ChaosCrc, MatchesKnownVectorAndChains) {
  // The canonical IEEE 802.3 check value.
  const std::string check = "123456789";
  EXPECT_EQ(serve::crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(serve::crc32(nullptr, 0), 0u);

  // Incremental chaining equals the one-shot digest.
  const std::string a = "1234", b = "56789";
  const std::uint32_t partial = serve::crc32(a.data(), a.size());
  EXPECT_EQ(serve::crc32(b.data(), b.size(), partial),
            serve::crc32(check.data(), check.size()));

  // A single flipped bit changes the digest.
  std::string damaged = check;
  damaged[4] ^= 0x01;
  EXPECT_NE(serve::crc32(damaged.data(), damaged.size()),
            serve::crc32(check.data(), check.size()));
}

// ---------------------------------------------------------------------------
// Fault plan grammar

TEST(ChaosPlan, ParseRoundTripsThroughDescribe) {
  const std::string spec =
      "disconnect@4096,truncate@10:3,corrupt@7:0xf,stall@0:250,"
      "short@100:16:5,accept-delay:100";
  const WireFaultPlan plan = WireFaultPlan::parse(spec);
  EXPECT_EQ(plan.events().size(), 6u);
  EXPECT_EQ(plan.describe(), spec);
  // describe() itself reparses to the identical plan.
  EXPECT_EQ(WireFaultPlan::parse(plan.describe()).describe(), spec);
  EXPECT_EQ(WireFaultPlan().describe(), "none");
  EXPECT_TRUE(WireFaultPlan::parse("").empty());
}

TEST(ChaosPlan, MalformedSpecsThrowConfigError) {
  const char* bad[] = {
      "disconnect",        // missing @offset
      "disconnect@",       // empty offset
      "truncate@1:0",      // zero drop
      "corrupt@5:0",       // zero mask
      "corrupt@5:256",     // mask out of range
      "stall@1",           // missing duration
      "accept-delay@5:1",  // accept-delay takes no offset
      "short@1",           // missing chunk
      "bogus@3",           // unknown kind
      "disconnect@12junk", // trailing junk
  };
  for (const char* spec : bad) {
    EXPECT_THROW(WireFaultPlan::parse(spec), ConfigError) << spec;
  }
}

TEST(ChaosPlan, SeededRandomPlansAreDeterministic) {
  const RandomWireFaultOptions options;
  EXPECT_EQ(WireFaultPlan::random(42, options).describe(),
            WireFaultPlan::random(42, options).describe());
  EXPECT_NE(WireFaultPlan::random(42, options).describe(),
            WireFaultPlan::random(43, options).describe());
  // The spec grammar reaches the same generator.
  EXPECT_EQ(WireFaultPlan::parse("random:42").describe(),
            WireFaultPlan::random(42, options).describe());
}

// ---------------------------------------------------------------------------
// Injector mechanics (no sockets)

TEST(ChaosInjector, SlicesSendsAtEventBoundaries) {
  WireFaultPlan plan;
  plan.corrupt_at(4, 0x0F).disconnect_at(10);
  WireFaultInjector injector(plan);

  // Bytes 0..3 pass untouched: the slice stops at the corrupt boundary.
  auto action = injector.next_tx(20);
  EXPECT_FALSE(action.close);
  EXPECT_EQ(action.drop, 0u);
  EXPECT_EQ(action.allow, 4u);
  injector.commit_tx(4);

  // Byte 4 goes out XOR-damaged, alone.
  action = injector.next_tx(16);
  EXPECT_TRUE(action.corrupt_first);
  EXPECT_EQ(action.xor_mask, 0x0F);
  EXPECT_EQ(action.allow, 1u);
  injector.commit_tx(1);
  EXPECT_EQ(injector.fired_count(), 1u);

  // Bytes 5..9 pass; the next boundary is the disconnect at 10.
  action = injector.next_tx(15);
  EXPECT_FALSE(action.corrupt_first);
  EXPECT_EQ(action.allow, 5u);
  injector.commit_tx(5);

  action = injector.next_tx(10);
  EXPECT_TRUE(action.close);
  EXPECT_EQ(injector.fired_count(), 2u);
  EXPECT_EQ(injector.tx_offset(), 10u);
}

TEST(ChaosInjector, TruncateSwallowsExactlyTheConfiguredBytes) {
  WireFaultPlan plan;
  plan.truncate_at(2, 3);
  WireFaultInjector injector(plan);

  auto action = injector.next_tx(10);
  EXPECT_EQ(action.allow, 2u);
  injector.commit_tx(2);

  // Three bytes vanish (counted as sent, never delivered)...
  action = injector.next_tx(8);
  EXPECT_EQ(action.drop, 3u);
  injector.commit_tx(3);

  // ...and everything after flows again.
  action = injector.next_tx(5);
  EXPECT_EQ(action.drop, 0u);
  EXPECT_EQ(action.allow, 5u);
  injector.commit_tx(5);
  EXPECT_EQ(injector.tx_offset(), 10u);
}

// ---------------------------------------------------------------------------
// Frame integrity over a live connection

TEST(ChaosServe, CorruptFrameDrawsTypedErrorAndCounter) {
  const Workload& w = shared_workload();
  MappingServer server(w.ref, chaos_config(), chaos_server_options());
  server.start();

  {
    Socket sock = raw_hello(server.port());
    // Hand-build a STATS frame with a correct CRC, then damage the payload
    // after the checksum was computed — exactly what a flipped bit in
    // flight looks like.
    const std::string payload = "damaged-in-flight";
    std::string frame;
    serve::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
    frame.push_back(static_cast<char>(FrameType::kStats));
    std::uint32_t crc = serve::crc32(frame.data(), frame.size());
    crc = serve::crc32(payload.data(), payload.size(), crc);
    serve::put_u32(frame, crc);
    frame += payload;
    frame[serve::kFrameHeaderBytes + 3] ^= 0x40;
    sock.send_all(frame.data(), frame.size(), 5'000);
    EXPECT_EQ(expect_error_frame(sock), WireErrorCode::kCorrupt);
  }

  // The damage is visible in the server's own counters.
  ClientOptions probe_options;
  probe_options.port = server.port();
  MappingClient probe(probe_options);
  const auto kv = serve::parse_kv_lines(probe.stats());
  EXPECT_GE(std::stoull(kv.at("corrupt_frames_total")), 1u);

  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Backoff and overload shedding

TEST(ChaosServe, ConnectBackoffIsBoundedAndTyped) {
  const Workload& w = shared_workload();
  ServeOptions options = chaos_server_options();
  options.max_connections = 1;
  options.busy_retry_ms = 10;
  MappingServer server(w.ref, chaos_config(), options);
  server.start();

  // One idle client pins the only connection slot.
  ClientOptions holder_options;
  holder_options.port = server.port();
  MappingClient holder(holder_options);

  {
    // Bounded retries: a few BUSY refusals under backoff, then a typed
    // give-up that carries the server's hint.
    ClientOptions options2;
    options2.port = server.port();
    options2.connect_retries = 2;
    pin_fast_backoff(options2, 7);
    try {
      MappingClient refused(options2);
      FAIL() << "connect succeeded past the connection limit";
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), WireErrorCode::kShuttingDown) << e.what();
      EXPECT_NE(std::string(e.what()).find("connection limit"),
                std::string::npos)
          << e.what();
    }
  }
  {
    // A cumulative backoff budget smaller than one sleep trips before any
    // retry: kTimeout, not an unbounded stall.
    ClientOptions options3;
    options3.port = server.port();
    options3.connect_retries = 5;
    options3.backoff_total_ms = 1;
    pin_fast_backoff(options3, 8);
    try {
      MappingClient refused(options3);
      FAIL() << "connect succeeded past the connection limit";
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), WireErrorCode::kTimeout) << e.what();
      EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos)
          << e.what();
    }
  }

  holder.close();
  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Deadline propagation and eviction

TEST(ChaosServe, ClientDeadlinePropagatesAndAbandonsWork) {
  const Workload& w = shared_workload();
  MappingServer server(w.ref, chaos_config(), chaos_server_options());
  server.start();

  Socket sock = raw_hello(server.port());
  // MAP_BEGIN carries a 300 ms client deadline; the upload then stalls
  // forever.  The server must abandon the request on OUR deadline, not its
  // own 60 s one.
  serve::write_frame(sock, FrameType::kMapBegin,
                     serve::encode_map_begin({.deadline_ms = 300}), 5'000);
  auto go = serve::read_frame(sock, serve::kDefaultMaxFrameBytes, 5'000);
  ASSERT_TRUE(go.has_value());
  ASSERT_EQ(go->type, FrameType::kMapGo);
  serve::write_frame(sock, FrameType::kReadsChunk,
                     w.fastq.substr(0, w.fastq.size() / 4), 5'000);
  EXPECT_EQ(expect_error_frame(sock), WireErrorCode::kTimeout);

  ClientOptions probe_options;
  probe_options.port = server.port();
  MappingClient probe(probe_options);
  const auto kv = serve::parse_kv_lines(probe.stats());
  EXPECT_GE(std::stoull(kv.at("deadline_abandoned_total")), 1u);

  server.request_stop();
  server.wait();
}

TEST(ChaosServe, WatchdogEvictsConnectionsPastLifetimeBudget) {
  const Workload& w = shared_workload();
  ServeOptions options = chaos_server_options();
  options.max_connection_seconds = 0.3;
  MappingServer server(w.ref, chaos_config(), options);
  server.start();

  // An idle connection outlives its budget: the watchdog cancels it and
  // the handler answers with a typed eviction before closing.
  Socket sock = raw_hello(server.port());
  EXPECT_EQ(expect_error_frame(sock), WireErrorCode::kEvicted);

  ClientOptions probe_options;
  probe_options.port = server.port();
  MappingClient probe(probe_options);
  const auto kv = serve::parse_kv_lines(probe.stats());
  EXPECT_GE(std::stoull(kv.at("evictions_total")), 1u);

  server.request_stop();
  server.wait();
}

TEST(ChaosServe, ByteBudgetEvictsGreedyUploads) {
  const Workload& w = shared_workload();
  ServeOptions options = chaos_server_options();
  options.max_connection_bytes = 4096;  // the workload is far larger
  MappingServer server(w.ref, chaos_config(), options);
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv;
  try {
    client.map(fastq, tsv);
    FAIL() << "upload exceeded the byte budget without an eviction";
  } catch (const WireError& e) {
    // Typed verdict, not a transport error — the client must NOT retry
    // (the replay would just be evicted again).
    EXPECT_EQ(e.code(), WireErrorCode::kEvicted) << e.what();
  }

  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Health probes

TEST(ChaosServe, HealthProbeWorksEvenBeforeHandshake) {
  const Workload& w = shared_workload();
  MappingServer server(w.ref, chaos_config(), chaos_server_options());
  server.start();

  {
    // No HELLO: fleet probes must not need a handshake.
    Socket sock = serve::connect_tcp("127.0.0.1", server.port(), 5'000);
    serve::write_frame(sock, FrameType::kHealth, "", 5'000);
    auto reply = serve::read_frame(sock, serve::kDefaultMaxFrameBytes,
                                   5'000);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kHealthOk);
    const auto kv = serve::parse_kv_lines(reply->payload);
    EXPECT_EQ(kv.at("ready"), "1");
    EXPECT_EQ(kv.at("draining"), "0");
  }

  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  const auto kv = serve::parse_kv_lines(client.health());
  EXPECT_EQ(kv.at("ready"), "1");
  EXPECT_GT(std::stoull(kv.at("request_window_reads")), 0u);

  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Client-side retry accounting under an injected disconnect

TEST(ChaosServe, ReconnectRetriesIdempotentRequestAndAccountsForIt) {
  const Workload& w = shared_workload();
  MappingServer server(w.ref, chaos_config(), chaos_server_options());
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  client_options.transport_retries = 2;
  client_options.connect_retries = 2;
  pin_fast_backoff(client_options, 21);
  // The client cuts its own connection 5000 bytes in — mid-frame, inside
  // the first READS_CHUNK.  The injector survives the reconnect, so the
  // fault fires exactly once and the retry runs clean.
  client_options.fault_plan = WireFaultPlan::parse("disconnect@5000");

  MappingClient client(client_options);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv, sam;
  const auto outcome = client.map(fastq, tsv, &sam);

  EXPECT_FALSE(outcome.busy);
  EXPECT_EQ(outcome.reconnects, 1);
  EXPECT_GE(outcome.attempts, 2);
  EXPECT_GT(outcome.backoff_ms, 0u);
  EXPECT_EQ(tsv.str(), w.tsv);
  EXPECT_EQ(sam.str(), w.sam);

  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Server-side fault plan (the gnumapd --fault-plan path)

TEST(ChaosServe, ServerSideFaultPlanCutsEveryConnection) {
  const Workload& w = shared_workload();
  ServeOptions options = chaos_server_options();
  // Every accepted connection gets a fresh injector: the server's 80th
  // transmitted byte (inside HELLO_OK + MAP_GO territory) never arrives,
  // on any connection, so no retry can succeed.
  options.fault_plan = WireFaultPlan::parse("disconnect@80");
  MappingServer server(w.ref, chaos_config(), options);
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  client_options.transport_retries = 2;
  client_options.connect_retries = 2;
  pin_fast_backoff(client_options, 31);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv;
  try {
    MappingClient client(client_options);
    client.map(fastq, tsv);
    FAIL() << "map succeeded through a server that cuts every connection";
  } catch (const WireError& e) {
    // Typed transport failure after bounded retries — never a hang, never
    // an unhandled crash.
    EXPECT_EQ(e.code(), WireErrorCode::kClosed) << e.what();
  }

  // The server itself is healthy: it survived its own chaos and drains.
  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Drain with an in-flight upload

TEST(ChaosServe, DrainMidUploadFinishesOrFailsTyped) {
  const Workload& w = shared_workload();
  MappingServer server(w.ref, chaos_config(), chaos_server_options());
  server.start();

  std::string tsv_result;
  std::string error_text;
  std::atomic<bool> typed_error{false}, success{false};
  std::thread mapper([&] {
    try {
      ClientOptions client_options;
      client_options.port = server.port();
      MappingClient client(client_options);
      std::istringstream fastq(w.fastq);
      std::ostringstream tsv;
      const auto outcome = client.map(fastq, tsv);
      if (!outcome.busy) {
        tsv_result = tsv.str();
        success = true;
      }
    } catch (const WireError& e) {
      error_text = e.what();
      typed_error = true;
    }
  });

  // Begin the drain while the upload is (very likely) still in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.request_stop();
  mapper.join();
  server.wait();  // must return: drain never strands a handler

  EXPECT_TRUE(success.load() || typed_error.load())
      << "client saw neither a result nor a typed error";
  if (success.load()) {
    // An admitted request runs to completion even during a drain, and its
    // bytes are still identical to the offline pipeline's.
    EXPECT_EQ(tsv_result, w.tsv);
  }
}

// ---------------------------------------------------------------------------
// Seeded concurrent chaos sweep

TEST(ChaosServe, SeededFaultSweepPreservesByteIdentity) {
  const Workload& w = shared_workload();
  MappingServer server(w.ref, chaos_config(), chaos_server_options());
  server.start();

  // Three concurrent clients, each battering the server with its own
  // seeded plan — a mid-frame disconnect, a corrupted byte, and a stall,
  // all inside the first upload chunk — while retrying through the
  // damage.  Truncates are excluded: a swallowed hole can only surface as
  // a recv timeout, which is minutes of dead air, not a robustness signal.
  constexpr int kClients = 3;
  RandomWireFaultOptions fault_options;
  fault_options.disconnects = 1;
  fault_options.corruptions = 1;
  fault_options.stalls = 1;
  fault_options.truncates = 0;
  fault_options.max_stall_seconds = 0.1;

  std::vector<std::string> tsv_results(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<int> reconnects(kClients, 0);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        ClientOptions client_options;
        client_options.port = server.port();
        client_options.busy_retries = 100;
        client_options.connect_retries = 4;
        client_options.transport_retries = 4;
        pin_fast_backoff(client_options, 77 + i);
        client_options.fault_plan =
            WireFaultPlan::random(1000 + i, fault_options);
        MappingClient client(client_options);
        std::istringstream fastq(w.fastq);
        std::ostringstream tsv;
        const auto outcome = client.map(fastq, tsv);
        if (outcome.busy) {
          errors[i] = "busy";
          return;
        }
        tsv_results[i] = tsv.str();
        reconnects[i] = outcome.reconnects;
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();

  int total_reconnects = 0;
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(errors[i], "") << "client " << i << " plan: "
                             << WireFaultPlan::random(1000 + i,
                                                      fault_options)
                                    .describe();
    EXPECT_EQ(tsv_results[i], w.tsv) << "client " << i;
    total_reconnects += reconnects[i];
  }
  // Every plan contains one guaranteed disconnect inside the upload, so
  // the sweep must have exercised the reconnect path.
  EXPECT_GE(total_reconnects, 1);

  // The server took the whole barrage and still answers cleanly.
  ClientOptions probe_options;
  probe_options.port = server.port();
  MappingClient probe(probe_options);
  const auto kv = serve::parse_kv_lines(probe.stats());
  EXPECT_GE(std::stoull(kv.at("requests_total")),
            static_cast<std::uint64_t>(kClients));
  EXPECT_GE(std::stoull(kv.at("corrupt_frames_total")), 1u);

  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace gnumap
