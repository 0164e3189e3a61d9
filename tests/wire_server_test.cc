// WireServer over real loopback sockets: results must match direct
// execution, pipelined multi-connection traffic must resolve by
// correlation id (including across live repartitions), malformed bytes
// must earn the documented error frame or clean close — never a crash or
// a leaked future — and backpressure must pause the reader, not drop
// work.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/wazi.h"
#include "net/socket_io.h"
#include "net/wire_client.h"
#include "net/wire_format.h"
#include "net/wire_server.h"
#include "serve/serve_loop.h"
#include "tests/test_util.h"

namespace wazi::net {
namespace {

serve::IndexFactory WaziFactory() {
  return [] { return std::unique_ptr<SpatialIndex>(new Wazi()); };
}

BuildOptions FastOpts() {
  BuildOptions opts;
  opts.leaf_capacity = 64;
  return opts;
}

struct Server {
  TestScenario scenario;
  serve::ServeLoop loop;
  WireServer server;

  explicit Server(WireServerOptions opts = {},
                  serve::ServeOptions serve_opts = DefaultServeOpts(),
                  uint64_t seed = 901)
      : scenario(MakeScenario(Region::kCaliNev, 4000, 80, 2e-3, seed)),
        loop(WaziFactory(), scenario.data, scenario.workload, FastOpts(),
             serve_opts),
        server(&loop, opts) {
    std::string err;
    EXPECT_TRUE(server.Start(&err)) << err;
  }
  // Server teardown must precede loop teardown (member order does that).
  ~Server() { server.Stop(); }

  static serve::ServeOptions DefaultServeOpts() {
    serve::ServeOptions opts;
    opts.num_shards = 2;
    opts.num_threads = 2;
    opts.auto_rebuild = false;
    opts.admission.window_us = 100;
    return opts;
  }

  std::unique_ptr<WireClient> Connect() {
    std::string err;
    auto c = WireClient::Connect("127.0.0.1", server.port(), &err);
    EXPECT_NE(c, nullptr) << err;
    return c;
  }
};

// The server counts a response once SendAll returns, which can be after
// the client has already decoded it and resolved its future. Waits (up to
// 5 s) for the count to reach `want`, then returns it: a shortfall or an
// overshoot still shows in the caller's comparison.
int64_t SettledResponses(const WireServer& server, int64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int64_t got = server.stats().responses;
  while (got < want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    got = server.stats().responses;
  }
  return got;
}

// Raw-socket helper: reads until one complete response frame decodes (or
// the peer closes, returning false).
bool ReadOneResponse(int fd, FrameDecoder* decoder, WireResponse* resp) {
  Frame frame;
  for (;;) {
    switch (decoder->Next(&frame)) {
      case FrameDecoder::Status::kFrame:
        return DecodeResponse(frame, resp);
      case FrameDecoder::Status::kError:
        return false;
      case FrameDecoder::Status::kNeedMore:
        break;
    }
    char buf[4096];
    const ptrdiff_t got = RecvSome(fd, buf, sizeof(buf));
    if (got <= 0) return false;
    decoder->Feed(buf, static_cast<size_t>(got));
  }
}

// Blocks until the peer closes; true only if NO further bytes arrived (a
// clean close with no response).
bool ReadsCleanClose(int fd) {
  char buf[256];
  return RecvSome(fd, buf, sizeof(buf)) == 0;
}

TEST(WireServerTest, QueriesAndUpdatesMatchDirectExecution) {
  Server s;
  auto client = s.Connect();

  for (size_t i = 0; i < 20; ++i) {
    const Rect& q = s.scenario.workload.queries[i];
    const serve::QueryResult over_wire = client->Range(q);
    EXPECT_EQ(SortedIds(over_wire.hits), TruthIds(s.scenario.data, q))
        << "range " << i;
  }
  EXPECT_TRUE(client->PointLookup(s.scenario.data.points[17]));
  EXPECT_FALSE(client->PointLookup(Point{9.0, 9.0, -5}));

  const serve::QueryResult direct_knn =
      s.loop.Knn(s.scenario.data.points[3], 7);
  const serve::QueryResult wire_knn =
      client->Knn(s.scenario.data.points[3], 7);
  EXPECT_EQ(SortedIds(wire_knn.hits), SortedIds(direct_knn.hits));

  // Insert over the wire, flush, observe via a range query.
  const Point fresh{s.scenario.workload.queries[0].min_x,
                    s.scenario.workload.queries[0].min_y, int64_t{1} << 50};
  client->SubmitInsert(fresh).get();
  s.loop.Flush();
  const serve::QueryResult after =
      client->Range(s.scenario.workload.queries[0]);
  EXPECT_TRUE(std::any_of(after.hits.begin(), after.hits.end(),
                          [&](const Point& p) { return p.id == fresh.id; }));
  client->SubmitRemove(fresh).get();
  s.loop.Flush();
  const serve::QueryResult removed =
      client->Range(s.scenario.workload.queries[0]);
  EXPECT_FALSE(std::any_of(removed.hits.begin(), removed.hits.end(),
                           [&](const Point& p) { return p.id == fresh.id; }));
}

TEST(WireServerTest, PipelinedMultiConnectionUnderRepartition) {
  Server s;
  constexpr int kClients = 3;
  constexpr size_t kPerClient = 150;
  std::atomic<bool> stop_repart{false};
  // Live migrations churn the topology the whole time: responses must
  // still match ground truth and resolve to the right futures.
  std::thread repart([&] {
    while (!stop_repart.load()) {
      s.loop.TriggerRepartition();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = s.Connect();
      ASSERT_NE(client, nullptr);
      std::vector<std::future<serve::QueryResult>> futures;
      std::vector<size_t> which;
      for (size_t i = 0; i < kPerClient; ++i) {
        const size_t qi =
            (static_cast<size_t>(c) * 31 + i) %
            s.scenario.workload.queries.size();
        which.push_back(qi);
        futures.push_back(
            client->SubmitRange(s.scenario.workload.queries[qi]));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        const serve::QueryResult got = futures[i].get();
        EXPECT_EQ(SortedIds(got.hits),
                  TruthIds(s.scenario.data,
                           s.scenario.workload.queries[which[i]]))
            << "client " << c << " query " << i;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop_repart.store(true);
  repart.join();
  EXPECT_GE(s.server.stats().connections_opened, kClients);
  const auto want = static_cast<int64_t>(kClients * kPerClient);
  EXPECT_EQ(SettledResponses(s.server, want), want);
}

TEST(WireServerTest, TruncatedPrefixDisconnectIsClean) {
  Server s;
  std::string err;
  const int fd = ConnectTcp("127.0.0.1", s.server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  // Two bytes of a length prefix, then gone.
  ASSERT_TRUE(SendAll(fd, "\x10\x00", 2));
  ShutdownSocket(fd);
  EXPECT_TRUE(ReadsCleanClose(fd));
  CloseSocket(fd);
  // The server survives and serves the next client.
  auto client = s.Connect();
  EXPECT_FALSE(client->Range(s.scenario.workload.queries[0]).hits.empty());
}

TEST(WireServerTest, MidFrameDisconnectIsClean) {
  Server s;
  std::string err;
  const int fd = ConnectTcp("127.0.0.1", s.server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  std::string frame;
  EncodeRangeQuery(1, Rect::Of(0, 0, 1, 1), &frame);
  // Everything but the last 5 bytes, then gone mid-frame.
  ASSERT_TRUE(SendAll(fd, frame.data(), frame.size() - 5));
  ShutdownSocket(fd);
  EXPECT_TRUE(ReadsCleanClose(fd));
  CloseSocket(fd);
  auto client = s.Connect();
  EXPECT_FALSE(client->Range(s.scenario.workload.queries[0]).hits.empty());
}

TEST(WireServerTest, OversizedFrameGetsErrorFrameThenClose) {
  WireServerOptions opts;
  opts.max_request_frame_bytes = 256;
  Server s(opts);
  std::string err;
  const int fd = ConnectTcp("127.0.0.1", s.server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  const uint32_t len = 512;
  char prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  ASSERT_TRUE(SendAll(fd, prefix, sizeof(prefix)));
  FrameDecoder decoder(1u << 20);
  WireResponse resp;
  ASSERT_TRUE(ReadOneResponse(fd, &decoder, &resp));
  EXPECT_EQ(resp.type, MsgType::kError);
  EXPECT_EQ(resp.error, WireError::kFrameTooLarge);
  EXPECT_TRUE(ReadsCleanClose(fd));
  CloseSocket(fd);
}

TEST(WireServerTest, BadVersionGetsErrorFrameThenClose) {
  Server s;
  std::string err;
  const int fd = ConnectTcp("127.0.0.1", s.server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  std::string frame;
  EncodeRangeQuery(44, Rect::Of(0, 0, 1, 1), &frame);
  frame[4] = 7;  // version byte
  ASSERT_TRUE(SendAll(fd, frame.data(), frame.size()));
  FrameDecoder decoder(1u << 20);
  WireResponse resp;
  ASSERT_TRUE(ReadOneResponse(fd, &decoder, &resp));
  EXPECT_EQ(resp.type, MsgType::kError);
  EXPECT_EQ(resp.error, WireError::kBadVersion);
  EXPECT_EQ(resp.corr_id, 44u);
  EXPECT_TRUE(ReadsCleanClose(fd));
  CloseSocket(fd);
}

TEST(WireServerTest, UnknownTypeAnsweredAndConnectionContinues) {
  Server s;
  std::string err;
  const int fd = ConnectTcp("127.0.0.1", s.server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  // Hand-built header-only frame with an unknown type, followed (same
  // write) by a valid query: the server must answer BOTH, in order.
  std::string bytes;
  const uint32_t len = static_cast<uint32_t>(kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  bytes.push_back(static_cast<char>(kWireVersion));
  bytes.push_back(static_cast<char>(99));  // unknown type
  bytes.push_back(0);
  bytes.push_back(0);  // flags
  for (int i = 0; i < 8; ++i) bytes.push_back(i == 0 ? 77 : 0);  // corr 77
  EncodeRangeQuery(78, s.scenario.workload.queries[0], &bytes);
  ASSERT_TRUE(SendAll(fd, bytes.data(), bytes.size()));

  FrameDecoder decoder(64u << 20);
  WireResponse resp;
  ASSERT_TRUE(ReadOneResponse(fd, &decoder, &resp));
  EXPECT_EQ(resp.type, MsgType::kError);
  EXPECT_EQ(resp.error, WireError::kUnknownType);
  EXPECT_EQ(resp.corr_id, 77u);
  ASSERT_TRUE(ReadOneResponse(fd, &decoder, &resp));
  EXPECT_EQ(resp.type, MsgType::kRangeResult);
  EXPECT_EQ(resp.corr_id, 78u);
  EXPECT_EQ(SortedIds(resp.result.hits),
            TruthIds(s.scenario.data, s.scenario.workload.queries[0]));
  CloseSocket(fd);
}

TEST(WireServerTest, BackpressurePausesReaderWithoutDroppingWork) {
  WireServerOptions opts;
  opts.max_inflight_per_conn = 1;
  serve::ServeOptions serve_opts = Server::DefaultServeOpts();
  // A long admission window keeps futures unresolved while the reader hits
  // the inflight cap deterministically.
  serve_opts.admission.window_us = 20000;
  Server s(opts, serve_opts);
  auto client = s.Connect();

  constexpr size_t kQueries = 24;
  std::vector<std::future<serve::QueryResult>> futures;
  for (size_t i = 0; i < kQueries; ++i) {
    futures.push_back(client->SubmitRange(
        s.scenario.workload.queries[i % s.scenario.workload.queries.size()]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(SortedIds(futures[i].get().hits),
              TruthIds(s.scenario.data,
                       s.scenario.workload.queries[
                           i % s.scenario.workload.queries.size()]))
        << "query " << i;
  }
  // Every query answered AND the reader actually paused along the way.
  EXPECT_GE(s.server.stats().backpressure_pauses, 1);
  const auto want = static_cast<int64_t>(kQueries);
  EXPECT_EQ(SettledResponses(s.server, want), want);
}

TEST(WireServerTest, QueuedBytesCapAlsoPausesReader) {
  WireServerOptions opts;
  opts.max_queued_response_bytes = 1;  // any queued ack trips the cap
  Server s(opts);
  auto client = s.Connect();
  // A burst of pipelined inserts: acks are ready-encoded at enqueue, so
  // the byte cap gates the reader between chunks.
  std::vector<std::future<void>> acks;
  for (int i = 0; i < 200; ++i) {
    acks.push_back(client->SubmitInsert(
        Point{0.5, 0.5, (int64_t{1} << 52) + i}));
  }
  for (auto& ack : acks) ack.get();
  EXPECT_GE(s.server.stats().backpressure_pauses, 1);
}

TEST(WireServerTest, StopWithInFlightRequestsResolvesEverything) {
  serve::ServeOptions serve_opts = Server::DefaultServeOpts();
  serve_opts.admission.window_us = 10000;
  Server s({}, serve_opts);
  auto client = s.Connect();
  std::vector<std::future<serve::QueryResult>> futures;
  for (size_t i = 0; i < 50; ++i) {
    futures.push_back(client->SubmitRange(
        s.scenario.workload.queries[i % s.scenario.workload.queries.size()]));
  }
  // Stop the server mid-burst: every future must resolve — with a result
  // or a connection error — never hang, never leak.
  s.server.Stop();
  size_t resolved = 0, failed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++resolved;
    } catch (const WireClientError&) {
      ++failed;
    }
  }
  EXPECT_EQ(resolved + failed, futures.size());
}

TEST(WireServerTest, MetricsAndJournalObserveConnections) {
  Server s;
  {
    auto client = s.Connect();
    EXPECT_FALSE(client->Range(s.scenario.workload.queries[0]).hits.empty());
  }
  // Stop() reaps the closed connection deterministically.
  s.server.Stop();
  const auto snap = s.loop.metrics().Snapshot();
  EXPECT_GE(snap.CounterValue("net_connections_total"), 1);
  EXPECT_GE(snap.CounterValue("net_requests_total"), 1);
  EXPECT_GE(snap.CounterValue("net_responses_total"), 1);
  EXPECT_GT(snap.CounterValue("net_bytes_read_total"), 0);
  EXPECT_GT(snap.CounterValue("net_bytes_written_total"), 0);
  EXPECT_EQ(snap.GaugeValue("net_active_connections"), 0);
  bool saw_open = false, saw_close = false;
  for (const obs::TraceEvent& e : s.loop.journal().Tail(4096)) {
    if (e.kind == obs::TraceEventKind::kNetConn) {
      (e.a != 0 ? saw_open : saw_close) = true;
    }
  }
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_close);
}

}  // namespace
}  // namespace wazi::net
