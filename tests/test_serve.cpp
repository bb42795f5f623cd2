// Tests for the serving subsystem: wire codec, admission control, and the
// gnumapd server end to end over real sockets — byte-identity with the
// offline pipeline (alone and under concurrent clients with a mid-stream
// disconnect), typed errors for malformed traffic, BUSY under a full
// admission window, bounded in-flight reads, graceful shutdown, the
// gnumap_serve_* metrics export, the embedded admin HTTP endpoint, and
// trace-id propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gnumap/core/pipeline.hpp"
#include "gnumap/io/fastq.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/obs/metrics.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/serve/admission.hpp"
#include "gnumap/serve/client.hpp"
#include "gnumap/serve/server.hpp"
#include "gnumap/serve/socket.hpp"
#include "gnumap/serve/wire.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"

namespace gnumap {
namespace {

using serve::AdmissionController;
using serve::ClientOptions;
using serve::Frame;
using serve::FrameType;
using serve::MappingClient;
using serve::MappingServer;
using serve::ServeOptions;
using serve::Socket;
using serve::WireError;
using serve::WireErrorCode;

// ---------------------------------------------------------------------------
// Helpers

struct Workload {
  Genome ref;
  std::vector<Read> reads;
  std::string fastq;
};

Workload make_workload(std::uint64_t length = 20000, double coverage = 6.0) {
  ReferenceGenOptions ref_options;
  ref_options.length = length;
  ref_options.repeat_fraction = 0.0;
  ref_options.n_fraction = 0.0;
  Workload w;
  w.ref = generate_reference(ref_options);
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

PipelineConfig serve_config() {
  PipelineConfig config;
  config.index.k = 9;
  config.alpha = 1e-4;
  config.threads = 2;
  config.stream_batch = 32;
  config.queue_depth = 2;
  config.min_parallel_reads = 0;  // force the staged path on small inputs
  return config;
}

ServeOptions test_options() {
  ServeOptions options;
  options.port = 0;  // ephemeral
  options.io_timeout_ms = 10'000;
  options.request_timeout_ms = 60'000;
  return options;
}

/// Offline reference outputs for byte-identity checks: the same config the
/// server runs, through the public pipeline entry point.
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

/// Connects and completes the handshake at the raw frame level (for tests
/// that need to send traffic MappingClient would refuse to produce).
Socket raw_hello(std::uint16_t port) {
  Socket sock = serve::connect_tcp("127.0.0.1", port, 5'000);
  serve::write_frame(sock, FrameType::kHello,
                     serve::encode_hello(serve::kProtocolVersion, "raw-test"),
                     5'000);
  auto reply = serve::read_frame(sock, serve::kDefaultMaxFrameBytes, 5'000);
  if (!reply.has_value() || reply->type != FrameType::kHelloOk) {
    throw WireError(WireErrorCode::kProtocol, "handshake failed in test");
  }
  return sock;
}

/// Reads frames until an ERROR arrives and returns its decoded code; fails
/// the test if the connection closes first.
WireErrorCode expect_error_frame(Socket& sock) {
  for (;;) {
    auto frame = serve::read_frame(sock, serve::kDefaultMaxFrameBytes, 5'000);
    if (!frame.has_value()) {
      ADD_FAILURE() << "connection closed without an ERROR frame";
      return WireErrorCode::kInternal;
    }
    if (frame->type == FrameType::kError) {
      return serve::decode_error(frame->payload).first;
    }
  }
}

/// Minimal HTTP/1.0 GET against the admin endpoint: one request, read to
/// close (the server always answers Connection: close), split off the
/// status code and body.
struct HttpResponse {
  int status = 0;
  std::string body;
};

HttpResponse http_get(int port, const std::string& target) {
  Socket sock =
      serve::connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port), 5'000);
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  sock.send_all(request.data(), request.size(), 5'000);
  std::string raw;
  char buf[4096];
  for (;;) {
    const std::size_t n = sock.recv_some(buf, sizeof buf, 30'000);
    if (n == 0) break;
    raw.append(buf, n);
  }
  HttpResponse resp;
  const std::size_t space = raw.find(' ');
  if (space != std::string::npos) {
    resp.status = std::atoi(raw.c_str() + space + 1);
  }
  const std::size_t blank = raw.find("\r\n\r\n");
  if (blank != std::string::npos) resp.body = raw.substr(blank + 4);
  return resp;
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(Wire, IntegerCodecRoundTrips) {
  std::string payload;
  serve::put_u16(payload, 0xBEEF);
  serve::put_u32(payload, 0xDEADBEEFu);
  serve::put_u64(payload, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(serve::get_u16(payload, 0), 0xBEEF);
  EXPECT_EQ(serve::get_u32(payload, 2), 0xDEADBEEFu);
  EXPECT_EQ(serve::get_u64(payload, 6), 0xDEADBEEFCAFEF00Dull);
  EXPECT_THROW(serve::get_u32(payload, 11), WireError);  // out of bounds
  EXPECT_THROW(serve::get_u64(payload, 7), WireError);   // out of bounds
}

TEST(Wire, MapBeginCodecRoundTripsTheOneForm) {
  // flags + deadline + trace id + parent span id, 21 bytes.
  serve::MapBeginInfo info;
  info.flags = 0x01;
  info.deadline_ms = 12'345;
  info.trace_id = 0xDEADBEEFCAFEF00Dull;
  info.parent_span_id = 0x0123456789ABCDEFull;
  const std::string payload = serve::encode_map_begin(info);
  EXPECT_EQ(payload.size(), serve::kMapBeginBytes);
  EXPECT_EQ(payload.size(), 21u);
  EXPECT_EQ(payload.substr(0, 5), std::string("\x01\x39\x30\x00\x00", 5));
  const serve::MapBeginInfo back = serve::decode_map_begin(payload);
  EXPECT_EQ(back.flags, info.flags);
  EXPECT_EQ(back.deadline_ms, info.deadline_ms);
  EXPECT_EQ(back.trace_id, info.trace_id);
  EXPECT_EQ(back.parent_span_id, info.parent_span_id);

  // Every other length is a malformed frame: the historical 1-byte and
  // 5-byte forms, one byte short, and the old genome-id trailers.
  for (const std::size_t size : {0u, 1u, 5u, 20u, 22u, 23u}) {
    std::string wrong = payload;
    wrong.resize(size, '\0');
    try {
      serve::decode_map_begin(wrong);
      ADD_FAILURE() << size << "-byte MAP_BEGIN decoded";
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), WireErrorCode::kBadFrame) << size;
    }
  }

  EXPECT_EQ(serve::trace_id_hex(0xDEADBEEFCAFEF00Dull), "deadbeefcafef00d");
  EXPECT_EQ(serve::trace_id_hex(0x5ull), "0000000000000005");
}

TEST(Wire, MessageCodecsRoundTrip) {
  const auto [version, text] =
      serve::decode_hello(serve::encode_hello(7, "banner text"));
  EXPECT_EQ(version, 7);
  EXPECT_EQ(text, "banner text");

  const auto [retry, msg] = serve::decode_busy(serve::encode_busy(250, "full"));
  EXPECT_EQ(retry, 250u);
  EXPECT_EQ(msg, "full");

  const auto [code, what] = serve::decode_error(
      serve::encode_error(WireErrorCode::kParse, "bad fastq"));
  EXPECT_EQ(code, WireErrorCode::kParse);
  EXPECT_EQ(what, "bad fastq");
}

TEST(Wire, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(serve::wire_error_code_name(WireErrorCode::kTooLarge),
               "too_large");
  EXPECT_STREQ(serve::wire_error_code_name(WireErrorCode::kShuttingDown),
               "shutting_down");
}

// ---------------------------------------------------------------------------
// Admission control

TEST(Admission, AlwaysAdmitsOneWhenIdle) {
  AdmissionController admission(100);
  // A reservation larger than the whole window is admitted while idle, so
  // no configuration can wedge the service.
  EXPECT_TRUE(admission.try_acquire(1, 1'000));
  EXPECT_EQ(admission.admitted(), 1'000u);
  // ...but nothing else fits until it releases.
  EXPECT_FALSE(admission.try_acquire(2, 1));
  admission.release(1, 1'000);
  EXPECT_TRUE(admission.try_acquire(2, 1));
}

TEST(Admission, RefusesBeyondCapacityAndRecoversOnRelease) {
  AdmissionController admission(100);
  EXPECT_TRUE(admission.try_acquire(1, 60));
  EXPECT_TRUE(admission.try_acquire(2, 40));
  EXPECT_FALSE(admission.try_acquire(3, 1));
  admission.release(2, 40);
  EXPECT_TRUE(admission.try_acquire(3, 30));
  EXPECT_EQ(admission.peak(), 100u);
}

TEST(Admission, PerConnectionCapLimitsOneClient) {
  AdmissionController admission(100, /*per_conn_cap=*/50);
  EXPECT_TRUE(admission.try_acquire(1, 40));
  // Connection 1 would exceed its 50-read share; connection 2 still fits.
  EXPECT_FALSE(admission.try_acquire(1, 20));
  EXPECT_TRUE(admission.try_acquire(2, 20));
}

TEST(Admission, ForgetConnectionReleasesItsHoldings) {
  AdmissionController admission(100);
  EXPECT_TRUE(admission.try_acquire(1, 80));
  EXPECT_FALSE(admission.try_acquire(2, 80));
  admission.forget_connection(1);  // connection died without releasing
  EXPECT_EQ(admission.admitted(), 0u);
  EXPECT_TRUE(admission.try_acquire(2, 80));
}

// ---------------------------------------------------------------------------
// End to end over real sockets

TEST(Serve, ByteIdenticalToOfflinePipeline) {
  const Workload w = make_workload();
  const PipelineConfig config = serve_config();
  const OfflineResult offline = offline_outputs(w, config);

  MappingServer server(w.ref, config, test_options());
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  EXPECT_NE(client.banner().find("gnumapd"), std::string::npos);

  std::istringstream fastq(w.fastq);
  std::ostringstream tsv, sam;
  const auto outcome = client.map(fastq, tsv, &sam);
  EXPECT_FALSE(outcome.busy);
  EXPECT_EQ(tsv.str(), offline.tsv);
  EXPECT_EQ(sam.str(), offline.sam);
  EXPECT_EQ(outcome.stats.at("reads_total"),
            std::to_string(w.reads.size()));

  // Same session, second request: the hot index serves it unchanged.
  std::istringstream fastq2(w.fastq);
  std::ostringstream tsv2;
  const auto outcome2 = client.map(fastq2, tsv2);
  EXPECT_FALSE(outcome2.busy);
  EXPECT_EQ(tsv2.str(), offline.tsv);

  server.request_stop();
  server.wait();
}

TEST(Serve, ConcurrentClientsWithMidStreamDisconnect) {
  const Workload w = make_workload();
  const PipelineConfig config = serve_config();
  const OfflineResult offline = offline_outputs(w, config);

  MappingServer server(w.ref, config, test_options());
  server.start();

  // One misbehaving peer vanishes mid-upload while four well-behaved
  // clients map concurrently; every served result must still be
  // byte-identical to the offline pipeline.
  std::thread disconnector([&] {
    try {
      Socket sock = raw_hello(server.port());
      serve::write_frame(sock, FrameType::kMapBegin,
                         serve::encode_map_begin({}), 5'000);
      auto go = serve::read_frame(sock, serve::kDefaultMaxFrameBytes, 5'000);
      if (go.has_value() && go->type == FrameType::kMapGo) {
        serve::write_frame(sock, FrameType::kReadsChunk,
                           w.fastq.substr(0, w.fastq.size() / 2), 5'000);
      }
      sock.close();  // abrupt: no MAP_END, no shutdown
    } catch (const WireError&) {
      // Losing a race with server-side teardown is fine; the assertion is
      // that the *server* survives, checked below.
    }
  });

  constexpr int kClients = 4;
  std::vector<std::string> tsv_results(kClients);
  std::vector<std::string> sam_results(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        ClientOptions client_options;
        client_options.port = server.port();
        client_options.busy_retries = 100;  // window contention is expected
        MappingClient client(client_options);
        std::istringstream fastq(w.fastq);
        std::ostringstream tsv, sam;
        const auto outcome = client.map(fastq, tsv, &sam);
        if (outcome.busy) {
          ++failures;
          return;
        }
        tsv_results[i] = tsv.str();
        sam_results[i] = sam.str();
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  disconnector.join();
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(tsv_results[i], offline.tsv) << "client " << i;
    EXPECT_EQ(sam_results[i], offline.sam) << "client " << i;
  }

  // The server survived the disconnect and still answers.
  ClientOptions probe_options;
  probe_options.port = server.port();
  MappingClient probe(probe_options);
  const auto kv = serve::parse_kv_lines(probe.stats());
  EXPECT_GE(std::stoull(kv.at("requests_total")), 4u);

  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Typed errors for malformed traffic

TEST(Serve, RejectsWrongProtocolVersion) {
  const Workload w = make_workload(8000, 1.0);
  MappingServer server(w.ref, serve_config(), test_options());
  server.start();

  // One version is spoken: an older client and a newer one are both
  // refused with a typed kBadVersion, never negotiated.
  for (const std::uint16_t version :
       {static_cast<std::uint16_t>(serve::kProtocolVersion - 1),
        static_cast<std::uint16_t>(serve::kProtocolVersion + 1)}) {
    Socket sock = serve::connect_tcp("127.0.0.1", server.port(), 5'000);
    serve::write_frame(sock, FrameType::kHello,
                       serve::encode_hello(version, "other"), 5'000);
    EXPECT_EQ(expect_error_frame(sock), WireErrorCode::kBadVersion)
        << "HELLO v" << version;
  }

  server.request_stop();
  server.wait();
}

TEST(Serve, RejectsNonHelloFirstFrameAndUnknownTypes) {
  const Workload w = make_workload(8000, 1.0);
  MappingServer server(w.ref, serve_config(), test_options());
  server.start();

  {
    Socket sock = serve::connect_tcp("127.0.0.1", server.port(), 5'000);
    serve::write_frame(sock, FrameType::kStats, "", 5'000);
    EXPECT_EQ(expect_error_frame(sock), WireErrorCode::kProtocol);
  }
  {
    Socket sock = raw_hello(server.port());
    serve::write_frame(sock, static_cast<FrameType>(0x7f), "junk", 5'000);
    EXPECT_EQ(expect_error_frame(sock), WireErrorCode::kProtocol);
  }
  {
    // MAP_BEGIN must carry its one 21-byte form.
    Socket sock = raw_hello(server.port());
    serve::write_frame(sock, FrameType::kMapBegin, "", 5'000);
    EXPECT_EQ(expect_error_frame(sock), WireErrorCode::kBadFrame);
  }

  server.request_stop();
  server.wait();
}

TEST(Serve, RejectsOversizedFrames) {
  const Workload w = make_workload(8000, 1.0);
  ServeOptions options = test_options();
  options.max_frame_bytes = 4096;
  MappingServer server(w.ref, serve_config(), options);
  server.start();

  Socket sock = serve::connect_tcp("127.0.0.1", server.port(), 5'000);
  // The handshake itself must fit, so HELLO is fine...
  serve::write_frame(sock, FrameType::kHello,
                     serve::encode_hello(serve::kProtocolVersion, "big"),
                     5'000);
  auto reply = serve::read_frame(sock, serve::kDefaultMaxFrameBytes, 5'000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kHelloOk);
  // ...but a frame above max_frame_bytes draws a typed refusal.
  serve::write_frame(sock, FrameType::kStats, std::string(8192, 'x'), 5'000);
  EXPECT_EQ(expect_error_frame(sock), WireErrorCode::kTooLarge);

  server.request_stop();
  server.wait();
}

TEST(Serve, FastqParseFailureReturnsTypedError) {
  const Workload w = make_workload(8000, 1.0);
  MappingServer server(w.ref, serve_config(), test_options());
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  std::istringstream garbage("this is not\nfastq at all\n");
  std::ostringstream tsv;
  try {
    client.map(garbage, tsv);
    FAIL() << "no exception for malformed FASTQ";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kParse) << e.what();
  }

  server.request_stop();
  server.wait();
}

TEST(Serve, TruncatedUploadAtRecordBoundaryIsTypedError) {
  // Regression: a disconnect mid-upload that lands exactly on a FASTQ
  // record boundary must NOT be treated as a clean end of input — that
  // would map the partial batch and answer MAP_DONE success with silently
  // truncated results.  Half-close keeps our read side open so the reply
  // is observable.
  const Workload w = make_workload(8000, 1.0);
  MappingServer server(w.ref, serve_config(), test_options());
  server.start();

  Socket sock = raw_hello(server.port());
  serve::write_frame(sock, FrameType::kMapBegin, serve::encode_map_begin({}),
                     5'000);
  auto go = serve::read_frame(sock, serve::kDefaultMaxFrameBytes, 5'000);
  ASSERT_TRUE(go.has_value());
  ASSERT_EQ(go->type, FrameType::kMapGo);

  // Exactly one complete 4-line record, then no MAP_END.
  std::size_t pos = 0;
  for (int nl = 0; nl < 4; ++nl) pos = w.fastq.find('\n', pos) + 1;
  serve::write_frame(sock, FrameType::kReadsChunk, w.fastq.substr(0, pos),
                     5'000);
  sock.shutdown_write();

  for (;;) {
    auto frame = serve::read_frame(sock, serve::kDefaultMaxFrameBytes,
                                   10'000);
    ASSERT_TRUE(frame.has_value()) << "connection closed without ERROR";
    ASSERT_NE(frame->type, FrameType::kMapDone)
        << "truncated upload was answered with MAP_DONE success";
    if (frame->type == FrameType::kError) {
      EXPECT_EQ(serve::decode_error(frame->payload).first,
                WireErrorCode::kClosed);
      break;
    }
  }

  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Admission over the wire

TEST(Serve, BusyWhenAdmissionWindowHeldThenRecovers) {
  const Workload w = make_workload(8000, 2.0);
  ServeOptions options = test_options();
  options.admission_reads = 1;  // any request fills the window
  options.busy_retry_ms = 10;
  MappingServer server(w.ref, serve_config(), options);
  server.start();

  // Holder: admitted via always-admit-one, then parks without finishing.
  Socket holder = raw_hello(server.port());
  serve::write_frame(holder, FrameType::kMapBegin,
                     serve::encode_map_begin({}), 5'000);
  auto go = serve::read_frame(holder, serve::kDefaultMaxFrameBytes, 5'000);
  ASSERT_TRUE(go.has_value());
  ASSERT_EQ(go->type, FrameType::kMapGo);

  // Second request while the window is held: BUSY, not a hang.
  ClientOptions client_options;
  client_options.port = server.port();
  client_options.busy_retries = 0;
  MappingClient client(client_options);
  {
    std::istringstream fastq(w.fastq);
    std::ostringstream tsv;
    const auto outcome = client.map(fastq, tsv);
    EXPECT_TRUE(outcome.busy);
  }

  // Holder finishes (empty request) and releases the window...
  serve::write_frame(holder, FrameType::kMapEnd, "", 5'000);
  for (;;) {
    auto frame = serve::read_frame(holder, serve::kDefaultMaxFrameBytes,
                                   10'000);
    ASSERT_TRUE(frame.has_value());
    if (frame->type == FrameType::kMapDone) break;
  }

  // ...after which the same client's retry is admitted.
  {
    std::istringstream fastq(w.fastq);
    std::ostringstream tsv;
    ClientOptions retry_options = client_options;
    retry_options.busy_retries = 50;
    MappingClient retry_client(retry_options);
    const auto outcome = retry_client.map(fastq, tsv);
    EXPECT_FALSE(outcome.busy);
    EXPECT_GT(outcome.stats.at("reads_total"), "0");
  }

  server.request_stop();
  server.wait();
}

TEST(Serve, InFlightReadsBoundedByAdmissionWindow) {
  // Load test: a request over a workload much larger than one window must
  // report an in-flight peak within the reservation it was admitted under.
  const Workload w = make_workload(30000, 10.0);
  const PipelineConfig config = serve_config();
  MappingServer server(w.ref, config, test_options());
  server.start();

  const std::uint64_t window = server.request_window_reads();
  ASSERT_LT(window, w.reads.size())
      << "workload too small to exercise the bound";

  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv;
  const auto outcome = client.map(fastq, tsv);
  EXPECT_FALSE(outcome.busy);
  EXPECT_EQ(outcome.stats.at("window_reads"), std::to_string(window));
  EXPECT_LE(std::stoull(outcome.stats.at("in_flight_peak")), window);

  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Shutdown and observability

TEST(Serve, ShutdownFrameDrainsTheServer) {
  const Workload w = make_workload(8000, 1.0);
  MappingServer server(w.ref, serve_config(), test_options());
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  client.shutdown_server();

  server.wait();  // returns because SHUTDOWN tripped the stop flag
  EXPECT_TRUE(server.stopping());
}

TEST(Serve, StatsAndPrometheusExport) {
  const Workload w = make_workload();
  MappingServer server(w.ref, serve_config(), test_options());
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv;
  const auto outcome = client.map(fastq, tsv);
  EXPECT_FALSE(outcome.busy);

  const auto kv = serve::parse_kv_lines(client.stats());
  EXPECT_GE(std::stoull(kv.at("requests_total")), 1u);
  EXPECT_EQ(kv.at("protocol_version"),
            std::to_string(serve::kProtocolVersion));
  EXPECT_GT(std::stoull(kv.at("bytes_received")), 0u);

  server.request_stop();
  server.wait();

  // The acceptance-criteria metrics are present in the Prometheus export.
  std::ostringstream prom;
  obs::registry().write_prometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("gnumap_serve_request_seconds"), std::string::npos);
  EXPECT_NE(text.find("gnumap_serve_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("gnumap_serve_rejected_total"), std::string::npos);
  EXPECT_NE(text.find("gnumap_serve_requests_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Admin HTTP endpoint

TEST(Serve, AdminDisabledByDefault) {
  const Workload w = make_workload(8000, 1.0);
  MappingServer server(w.ref, serve_config(), test_options());
  server.start();
  // No --admin-port means no admin socket exists at all.
  EXPECT_EQ(server.admin_port(), -1);
  server.request_stop();
  server.wait();
}

TEST(Serve, AdminEndpointsServeLiveState) {
  const Workload w = make_workload();
  const PipelineConfig config = serve_config();
  const OfflineResult offline = offline_outputs(w, config);

  ServeOptions options = test_options();
  options.admin_port = 0;  // ephemeral
  MappingServer server(w.ref, config, options);
  server.start();
  ASSERT_GT(server.admin_port(), 0);

  // Park a raw connection mid-request so the admin pages have live state
  // to show: admitted (MAP_GO seen) but never finishing its upload.
  Socket holder = raw_hello(server.port());
  serve::write_frame(holder, FrameType::kMapBegin,
                     serve::encode_map_begin({}), 5'000);
  auto go = serve::read_frame(holder, serve::kDefaultMaxFrameBytes, 5'000);
  ASSERT_TRUE(go.has_value());
  ASSERT_EQ(go->type, FrameType::kMapGo);

  {
    const HttpResponse health = http_get(server.admin_port(), "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body.rfind("ready=1", 0), 0u) << health.body;
  }
  {
    // /statusz sees the parked request: its connection row is in_request
    // and the admission window is holding its reservation.
    const HttpResponse status = http_get(server.admin_port(), "/statusz");
    EXPECT_EQ(status.status, 200);
    EXPECT_NE(status.body.find("\"state\": \"in_request\""),
              std::string::npos)
        << status.body;
    EXPECT_EQ(status.body.find("\"admitted_reads\": 0,"), std::string::npos)
        << status.body;
    EXPECT_NE(status.body.find("\"genome_bases\""), std::string::npos);
    EXPECT_NE(status.body.find("\"git_sha\""), std::string::npos);
  }
  {
    // /metrics is a valid live Prometheus page mid-request: every sample
    // line is "name value" with a parseable value, and the serve family
    // is present.
    const HttpResponse metrics = http_get(server.admin_port(), "/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("# TYPE gnumap_serve_requests_total counter"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("gnumap_serve_queue_depth"),
              std::string::npos);
    std::istringstream lines(metrics.body);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
    }
  }
  EXPECT_EQ(http_get(server.admin_port(), "/no-such-page").status, 404);

  // Release the holder (empty request is valid) before the byte-identity
  // check below.
  serve::write_frame(holder, FrameType::kMapEnd, "", 5'000);
  for (;;) {
    auto frame = serve::read_frame(holder, serve::kDefaultMaxFrameBytes,
                                   10'000);
    ASSERT_TRUE(frame.has_value());
    if (frame->type == FrameType::kMapDone) break;
  }

  // Mapping with the admin endpoint enabled changes nothing on the wire.
  ClientOptions client_options;
  client_options.port = server.port();
  MappingClient client(client_options);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv, sam;
  const auto outcome = client.map(fastq, tsv, &sam);
  EXPECT_FALSE(outcome.busy);
  EXPECT_EQ(tsv.str(), offline.tsv);
  EXPECT_EQ(sam.str(), offline.sam);

  // With requests completed, the bare /tracez digest table is non-empty
  // and carries the per-request latency breakdown.
  const HttpResponse tracez = http_get(server.admin_port(), "/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"slowest_recent_requests\""),
            std::string::npos);
  EXPECT_NE(tracez.body.find("\"map_stage_seconds\""), std::string::npos);
  EXPECT_NE(tracez.body.find("\"gcups\""), std::string::npos);

  server.request_stop();
  server.wait();
}

TEST(Serve, TracezCapturesAChromeTrace) {
  const Workload w = make_workload(8000, 2.0);
  ServeOptions options = test_options();
  options.admin_port = 0;
  MappingServer server(w.ref, serve_config(), options);
  server.start();

  obs::set_trace_enabled(false);
  obs::reset_trace();

  // Start the capture window, then map while it is open so the trace has
  // server-side spans in it.
  std::thread mapper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ClientOptions client_options;
    client_options.port = server.port();
    MappingClient client(client_options);
    std::istringstream fastq(w.fastq);
    std::ostringstream tsv;
    client.map(fastq, tsv);
  });
  const HttpResponse trace =
      http_get(server.admin_port(), "/tracez?duration_ms=2000");
  mapper.join();

  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.body.find("serve_request"), std::string::npos)
      << trace.body.substr(0, 400);
  // The window is over: /tracez left tracing the way it found it.
  EXPECT_FALSE(obs::trace_enabled());

  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------------
// Trace-id propagation

TEST(Serve, TraceIdRoundTripsClientToServer) {
  const Workload w = make_workload(8000, 2.0);
  MappingServer server(w.ref, serve_config(), test_options());
  server.start();

  obs::set_trace_enabled(false);
  obs::reset_trace();
  obs::set_trace_enabled(true);

  constexpr std::uint64_t kTraceId = 0xDEADBEEFCAFEF00Dull;
  ClientOptions client_options;
  client_options.port = server.port();
  client_options.trace_id = kTraceId;  // pinned, not random
  MappingClient client(client_options);
  std::istringstream fastq(w.fastq);
  std::ostringstream tsv;
  const auto outcome = client.map(fastq, tsv);
  EXPECT_FALSE(outcome.busy);

  // The serve_request span is recorded when the handler leaves the
  // request scope, which races the client's MAP_DONE receipt — drain the
  // server before freezing the trace so the span is in the export.
  server.request_stop();
  server.wait();
  obs::set_trace_enabled(false);

  // MAP_DONE echoes the id byte-exactly in its hex form, alongside the
  // server-side timing summary.
  EXPECT_EQ(outcome.trace_id, kTraceId);
  EXPECT_EQ(outcome.stats.at("trace_id"), "deadbeefcafef00d");
  EXPECT_NE(outcome.stats.at("parent_span_id"), "0000000000000000");
  // drain_seconds stays on the wire for old dashboards; format/splice are
  // its split (worker rendering vs. drain splicing).
  for (const char* key :
       {"total_seconds", "admission_wait_seconds", "upload_wait_seconds",
        "decode_seconds", "map_stage_seconds", "drain_seconds",
        "format_seconds", "splice_seconds",
        "call_seconds", "phmm_cells", "gcups"}) {
    EXPECT_TRUE(outcome.stats.count(key)) << "MAP_DONE missing " << key;
  }

  // Server and client run in one process here, so one trace export holds
  // both sides; the id tags the server's serve_request span and the
  // client's map_request span alike — that is what merge_traces.py keys on.
  std::ostringstream exported;
  obs::write_chrome_trace(exported);
  const std::string trace = exported.str();
  EXPECT_NE(trace.find("serve_request"), std::string::npos);
  EXPECT_NE(trace.find("map_request"), std::string::npos);
  EXPECT_NE(trace.find("deadbeefcafef00d"), std::string::npos);
  obs::reset_trace();
}

}  // namespace
}  // namespace gnumap
