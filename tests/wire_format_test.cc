// Wire protocol unit tests: every frame type must round-trip through the
// encoder and FrameDecoder byte-identically regardless of delivery
// chunking, and every malformed input must map to the documented
// WireError — never a crash, never a silently-accepted frame.

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "net/wire_format.h"

namespace wazi::net {
namespace {

constexpr size_t kServerCap = 1024;

// Feeds `bytes` in `chunk`-sized pieces and returns every decoded frame's
// (type, corr_id, payload copy) — payload pointers die on the next Feed,
// so tests must copy.
struct DecodedFrame {
  MsgType type;
  uint64_t corr_id;
  std::vector<uint8_t> payload;
};

std::vector<DecodedFrame> DecodeAll(const std::string& bytes, size_t chunk,
                                    FrameDecoder* decoder) {
  std::vector<DecodedFrame> out;
  for (size_t at = 0; at < bytes.size(); at += chunk) {
    const size_t n = std::min(chunk, bytes.size() - at);
    decoder->Feed(bytes.data() + at, n);
    Frame f;
    while (decoder->Next(&f) == FrameDecoder::Status::kFrame) {
      out.push_back(DecodedFrame{
          f.type, f.corr_id,
          std::vector<uint8_t>(f.payload, f.payload + f.payload_len)});
    }
  }
  return out;
}

// Parses whitespace-separated hex byte pairs into a byte string.
std::string Hex(const char* text) {
  std::string out;
  std::string digits;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == ' ' || *c == '\n') continue;
    digits.push_back(*c);
    if (digits.size() == 2) {
      out.push_back(static_cast<char>(std::stoi(digits, nullptr, 16)));
      digits.clear();
    }
  }
  return out;
}

bool SameBits(const Point& a, const Point& b) {
  return std::bit_cast<uint64_t>(a.x) == std::bit_cast<uint64_t>(b.x) &&
         std::bit_cast<uint64_t>(a.y) == std::bit_cast<uint64_t>(b.y) &&
         a.id == b.id;
}

// The exact bytes of two response frames, written out by hand from the
// layout in wire_format.h. Round-trip tests alone would let an encoder and
// decoder change the format together; this pins it.
TEST(WireFormatTest, ResponseFramesMatchGoldenBytes) {
  serve::QueryResult range;
  range.epoch = 0x1122334455667788;
  range.hits = {
      Point{-0.0, 1.0, -2},
      Point{std::bit_cast<double>(uint64_t{0x7ff8000000000123}),
            std::numeric_limits<double>::denorm_min(), 0x0123456789abcdef},
      Point{0.5, -1.5, std::numeric_limits<int64_t>::min()},
  };
  std::string bytes;
  EncodeHitsResult(MsgType::kRangeResult, 0x0102030405060708, range, &bytes);
  EXPECT_EQ(bytes, Hex("60 00 00 00"                 // len = 12 + 12 + 72
                       "01 21 00 00"                 // version, type, flags
                       "08 07 06 05 04 03 02 01"     // corr_id
                       "88 77 66 55 44 33 22 11"     // epoch
                       "03 00 00 00"                 // n
                       "00 00 00 00 00 00 00 80"     // -0.0
                       "00 00 00 00 00 00 f0 3f"     // 1.0
                       "fe ff ff ff ff ff ff ff"     // -2
                       "23 01 00 00 00 00 f8 7f"     // NaN, payload 0x123
                       "01 00 00 00 00 00 00 00"     // smallest subnormal
                       "ef cd ab 89 67 45 23 01"     // 0x0123456789abcdef
                       "00 00 00 00 00 00 e0 3f"     // 0.5
                       "00 00 00 00 00 00 f8 bf"     // -1.5
                       "00 00 00 00 00 00 00 80"));  // INT64_MIN

  serve::QueryResult point;
  point.epoch = 0x0a0b0c0d0e0f1011;
  point.found = true;
  bytes.clear();
  EncodePointResult(0xfffefdfcfbfaf9f8, point, &bytes);
  EXPECT_EQ(bytes, Hex("15 00 00 00"                 // len = 12 + 9
                       "01 22 00 00"                 // version, type, flags
                       "f8 f9 fa fb fc fd fe ff"     // corr_id
                       "11 10 0f 0e 0d 0c 0b 0a"     // epoch
                       "01"));                       // found

  // The decoder reads back every bit, NaN payload and signed zero included.
  FrameDecoder decoder(1024);
  bytes.clear();
  EncodeHitsResult(MsgType::kRangeResult, 1, range, &bytes);
  decoder.Feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(decoder.Next(&f), FrameDecoder::Status::kFrame);
  WireResponse resp;
  ASSERT_TRUE(DecodeResponse(f, &resp));
  EXPECT_EQ(resp.result.epoch, range.epoch);
  ASSERT_EQ(resp.result.hits.size(), range.hits.size());
  for (size_t i = 0; i < range.hits.size(); ++i) {
    EXPECT_TRUE(SameBits(resp.result.hits[i], range.hits[i])) << "hit " << i;
  }
}

// A large result fed to the decoder in random-sized chunks decodes to the
// same bits, with the frame boundary landing anywhere in a chunk.
TEST(WireFormatTest, LargeHitsFrameSurvivesRandomChunking) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> coord(-180.0, 180.0);
  serve::QueryResult result;
  result.epoch = 77;
  result.hits.resize(10000);
  for (size_t i = 0; i < result.hits.size(); ++i) {
    result.hits[i] = Point{coord(rng), coord(rng),
                           static_cast<int64_t>(rng())};
  }
  std::string bytes;
  EncodeHitsResult(MsgType::kRangeResult, 5, result, &bytes);
  EncodePointResult(6, result, &bytes);  // a second frame right behind
  ASSERT_EQ(bytes.size(), 4 + 12 + 12 + 24 * result.hits.size() + 4 + 21);

  FrameDecoder decoder(64u << 20);
  std::uniform_int_distribution<size_t> chunk(1, 4096);
  std::vector<WireResponse> got;
  for (size_t at = 0; at < bytes.size();) {
    const size_t n = std::min(chunk(rng), bytes.size() - at);
    decoder.Feed(bytes.data() + at, n);
    at += n;
    Frame f;
    while (decoder.Next(&f) == FrameDecoder::Status::kFrame) {
      got.emplace_back();
      ASSERT_TRUE(DecodeResponse(f, &got.back()));
    }
  }
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, MsgType::kRangeResult);
  EXPECT_EQ(got[0].corr_id, 5u);
  EXPECT_EQ(got[0].result.epoch, 77u);
  ASSERT_EQ(got[0].result.hits.size(), result.hits.size());
  for (size_t i = 0; i < result.hits.size(); ++i) {
    ASSERT_TRUE(SameBits(got[0].result.hits[i], result.hits[i]))
        << "hit " << i;
  }
  EXPECT_EQ(got[1].type, MsgType::kPointResult);
  EXPECT_EQ(got[1].corr_id, 6u);
}

TEST(WireFormatTest, RequestsRoundTrip) {
  std::string bytes;
  EncodeRangeQuery(7, Rect::Of(0.25, -1.5, 3.75, 2.5), &bytes);
  EncodePointQuery(8, Point{1.5, -2.5, 42}, &bytes);
  EncodeKnnQuery(9, Point{0.5, 0.5, 0}, 12, &bytes);
  EncodeInsert(10, Point{3.0, 4.0, 99}, &bytes);
  EncodeRemove(11, Point{3.0, 4.0, 99}, &bytes);

  // Chunk sizes bracketing every boundary: byte-at-a-time, a prime that
  // straddles frames, and everything at once.
  for (const size_t chunk : {size_t{1}, size_t{7}, bytes.size()}) {
    FrameDecoder decoder(kServerCap);
    const std::vector<DecodedFrame> frames =
        DecodeAll(bytes, chunk, &decoder);
    ASSERT_EQ(frames.size(), 5u) << "chunk=" << chunk;
    EXPECT_EQ(decoder.pending_bytes(), 0u);

    WireRequest req;
    Frame f{kWireVersion, frames[0].type, 0, frames[0].corr_id,
            frames[0].payload.data(), frames[0].payload.size()};
    ASSERT_EQ(DecodeRequest(f, &req), WireError::kNone);
    EXPECT_EQ(req.type, MsgType::kRangeQuery);
    EXPECT_EQ(req.corr_id, 7u);
    EXPECT_DOUBLE_EQ(req.rect.min_x, 0.25);
    EXPECT_DOUBLE_EQ(req.rect.min_y, -1.5);
    EXPECT_DOUBLE_EQ(req.rect.max_x, 3.75);
    EXPECT_DOUBLE_EQ(req.rect.max_y, 2.5);

    f = Frame{kWireVersion, frames[1].type, 0, frames[1].corr_id,
              frames[1].payload.data(), frames[1].payload.size()};
    ASSERT_EQ(DecodeRequest(f, &req), WireError::kNone);
    EXPECT_EQ(req.type, MsgType::kPointQuery);
    EXPECT_DOUBLE_EQ(req.point.x, 1.5);
    EXPECT_DOUBLE_EQ(req.point.y, -2.5);
    EXPECT_EQ(req.point.id, 42);

    f = Frame{kWireVersion, frames[2].type, 0, frames[2].corr_id,
              frames[2].payload.data(), frames[2].payload.size()};
    ASSERT_EQ(DecodeRequest(f, &req), WireError::kNone);
    EXPECT_EQ(req.type, MsgType::kKnnQuery);
    EXPECT_EQ(req.k, 12);

    f = Frame{kWireVersion, frames[3].type, 0, frames[3].corr_id,
              frames[3].payload.data(), frames[3].payload.size()};
    ASSERT_EQ(DecodeRequest(f, &req), WireError::kNone);
    EXPECT_EQ(req.type, MsgType::kInsert);
    EXPECT_EQ(req.point.id, 99);

    f = Frame{kWireVersion, frames[4].type, 0, frames[4].corr_id,
              frames[4].payload.data(), frames[4].payload.size()};
    ASSERT_EQ(DecodeRequest(f, &req), WireError::kNone);
    EXPECT_EQ(req.type, MsgType::kRemove);
    EXPECT_EQ(req.corr_id, 11u);
  }
}

TEST(WireFormatTest, ResponsesRoundTrip) {
  serve::QueryResult result;
  result.epoch = 3;
  result.hits = {Point{0.1, 0.2, 1}, Point{0.3, 0.4, 2}, Point{0.5, 0.6, 3}};
  serve::QueryResult point_result;
  point_result.epoch = 4;
  point_result.found = true;

  std::string bytes;
  EncodeHitsResult(MsgType::kRangeResult, 21, result, &bytes);
  EncodeHitsResult(MsgType::kKnnResult, 22, result, &bytes);
  EncodePointResult(23, point_result, &bytes);
  EncodeUpdateAck(24, &bytes);
  EncodeError(25, WireError::kUnknownType, "no such type", &bytes);

  FrameDecoder decoder(64u << 20);
  decoder.Feed(bytes.data(), bytes.size());
  Frame f;
  WireResponse resp;

  ASSERT_EQ(decoder.Next(&f), FrameDecoder::Status::kFrame);
  ASSERT_TRUE(DecodeResponse(f, &resp));
  EXPECT_EQ(resp.type, MsgType::kRangeResult);
  EXPECT_EQ(resp.corr_id, 21u);
  EXPECT_EQ(resp.result.epoch, 3u);
  ASSERT_EQ(resp.result.hits.size(), 3u);
  EXPECT_EQ(resp.result.hits[1].id, 2);
  EXPECT_DOUBLE_EQ(resp.result.hits[2].x, 0.5);

  ASSERT_EQ(decoder.Next(&f), FrameDecoder::Status::kFrame);
  ASSERT_TRUE(DecodeResponse(f, &resp));
  EXPECT_EQ(resp.type, MsgType::kKnnResult);
  ASSERT_EQ(resp.result.hits.size(), 3u);

  ASSERT_EQ(decoder.Next(&f), FrameDecoder::Status::kFrame);
  ASSERT_TRUE(DecodeResponse(f, &resp));
  EXPECT_EQ(resp.type, MsgType::kPointResult);
  EXPECT_TRUE(resp.result.found);
  EXPECT_EQ(resp.result.epoch, 4u);

  ASSERT_EQ(decoder.Next(&f), FrameDecoder::Status::kFrame);
  ASSERT_TRUE(DecodeResponse(f, &resp));
  EXPECT_EQ(resp.type, MsgType::kUpdateAck);

  ASSERT_EQ(decoder.Next(&f), FrameDecoder::Status::kFrame);
  ASSERT_TRUE(DecodeResponse(f, &resp));
  EXPECT_EQ(resp.type, MsgType::kError);
  EXPECT_EQ(resp.error, WireError::kUnknownType);
  EXPECT_EQ(resp.error_msg, "no such type");

  EXPECT_EQ(decoder.Next(&f), FrameDecoder::Status::kNeedMore);
}

TEST(WireFormatTest, TruncatedPrefixAndFrameNeedMore) {
  std::string bytes;
  EncodeRangeQuery(1, Rect::Of(0, 0, 1, 1), &bytes);

  // Every proper prefix of a valid frame is kNeedMore, never an error and
  // never a frame.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder decoder(kServerCap);
    decoder.Feed(bytes.data(), cut);
    Frame f;
    EXPECT_EQ(decoder.Next(&f), FrameDecoder::Status::kNeedMore)
        << "prefix of " << cut << " bytes";
    // A mid-frame EOF leaves the partial bytes observable.
    EXPECT_EQ(decoder.pending_bytes(), cut);
  }
}

TEST(WireFormatTest, OversizedFrameIsFatal) {
  // len announces more than the receiver's cap: poison, immediately —
  // before the (never-arriving) payload.
  std::string bytes;
  const uint32_t len = kServerCap + 1;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  FrameDecoder decoder(kServerCap);
  decoder.Feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(decoder.Next(&f), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), WireError::kFrameTooLarge);
  // The decoder stays in the error state: feeding more cannot revive it.
  decoder.Feed("AAAA", 4);
  EXPECT_EQ(decoder.Next(&f), FrameDecoder::Status::kError);
}

TEST(WireFormatTest, UndersizedFrameLengthIsFatal) {
  // len < header size: the frame cannot carry its own header, so the
  // stream cannot be re-framed past it.
  const char bytes[4] = {3, 0, 0, 0};
  FrameDecoder decoder(kServerCap);
  decoder.Feed(bytes, sizeof(bytes));
  Frame f;
  EXPECT_EQ(decoder.Next(&f), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadPayload);
}

TEST(WireFormatTest, UnknownTypeAndBadPayloadsRejected) {
  std::string bytes;
  EncodeRangeQuery(5, Rect::Of(0, 0, 1, 1), &bytes);
  FrameDecoder decoder(kServerCap);
  decoder.Feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(decoder.Next(&f), FrameDecoder::Status::kFrame);

  WireRequest req;
  // Unknown message type.
  Frame unknown = f;
  unknown.type = static_cast<MsgType>(99);
  EXPECT_EQ(DecodeRequest(unknown, &req), WireError::kUnknownType);
  // Response types are not requests either.
  unknown.type = MsgType::kRangeResult;
  EXPECT_EQ(DecodeRequest(unknown, &req), WireError::kUnknownType);

  // Reserved flags must be zero.
  Frame flagged = f;
  flagged.flags = 1;
  EXPECT_EQ(DecodeRequest(flagged, &req), WireError::kBadPayload);

  // Wrong payload size for the type.
  Frame short_payload = f;
  short_payload.payload_len = 31;
  EXPECT_EQ(DecodeRequest(short_payload, &req), WireError::kBadPayload);

  // kNN with k == 0.
  std::string knn;
  EncodeKnnQuery(6, Point{0, 0, 0}, 1, &knn);
  FrameDecoder kd(kServerCap);
  kd.Feed(knn.data(), knn.size());
  ASSERT_EQ(kd.Next(&f), FrameDecoder::Status::kFrame);
  Frame zero_k = f;
  std::vector<uint8_t> payload(f.payload, f.payload + f.payload_len);
  payload[16] = payload[17] = payload[18] = payload[19] = 0;
  zero_k.payload = payload.data();
  EXPECT_EQ(DecodeRequest(zero_k, &req), WireError::kBadPayload);
}

TEST(WireFormatTest, EmptyHitsAndLargeCorrIdsSurvive) {
  serve::QueryResult empty;
  empty.epoch = 1;
  std::string bytes;
  const uint64_t corr = ~uint64_t{0} - 1;
  EncodeHitsResult(MsgType::kRangeResult, corr, empty, &bytes);
  FrameDecoder decoder(64u << 20);
  decoder.Feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(decoder.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.corr_id, corr);
  WireResponse resp;
  ASSERT_TRUE(DecodeResponse(f, &resp));
  EXPECT_TRUE(resp.result.hits.empty());
}

}  // namespace
}  // namespace wazi::net
