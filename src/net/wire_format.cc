#include "net/wire_format.h"

#include <bit>
#include <cstring>

namespace wazi::net {
namespace {

// Little-endian primitives. On a little-endian host a word is its own
// wire image and is copied whole; elsewhere it is byte-assembled, so the
// format is identical on any host endianness.
template <typename T>
void StoreLE(T v, char* dst) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      dst[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }
}

template <typename T>
void PutLE(T v, std::string* out) {
  char bytes[sizeof(T)];
  StoreLE(v, bytes);
  out->append(bytes, sizeof(T));
}

void PutU16(uint16_t v, std::string* out) { PutLE(v, out); }
void PutU32(uint32_t v, std::string* out) { PutLE(v, out); }
void PutU64(uint64_t v, std::string* out) { PutLE(v, out); }

void PutF64(double v, std::string* out) {
  PutU64(std::bit_cast<uint64_t>(v), out);
}

template <typename T>
T LoadLE(const uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (size_t i = sizeof(T); i-- > 0;) v = static_cast<T>((v << 8) | p[i]);
  }
  return v;
}

uint16_t GetU16(const uint8_t* p) { return LoadLE<uint16_t>(p); }
uint32_t GetU32(const uint8_t* p) { return LoadLE<uint32_t>(p); }
uint64_t GetU64(const uint8_t* p) { return LoadLE<uint64_t>(p); }

int64_t GetI64(const uint8_t* p) { return static_cast<int64_t>(GetU64(p)); }

double GetF64(const uint8_t* p) { return std::bit_cast<double>(GetU64(p)); }

// Opens a frame: length prefix placeholder + header. Returns the offset of
// the placeholder so CloseFrame can backpatch the real length.
size_t BeginFrame(MsgType type, uint64_t corr_id, std::string* out) {
  const size_t len_at = out->size();
  PutU32(0, out);  // backpatched
  out->push_back(static_cast<char>(kWireVersion));
  out->push_back(static_cast<char>(type));
  PutU16(0, out);  // flags, reserved
  PutU64(corr_id, out);
  return len_at;
}

void CloseFrame(size_t len_at, std::string* out) {
  const uint32_t len =
      static_cast<uint32_t>(out->size() - len_at - kLenPrefixBytes);
  StoreLE(len, out->data() + len_at);
}

constexpr size_t kPointBytes = 24;

// A point's wire image: x, y, id as three little-endian 8-byte words.
void StorePoint(const Point& p, char* dst) {
  StoreLE(std::bit_cast<uint64_t>(p.x), dst);
  StoreLE(std::bit_cast<uint64_t>(p.y), dst + 8);
  StoreLE(static_cast<uint64_t>(p.id), dst + 16);
}

void PutPoint(const Point& p, std::string* out) {
  char bytes[kPointBytes];
  StorePoint(p, bytes);
  out->append(bytes, kPointBytes);
}

Point GetPoint(const uint8_t* p) {
  return Point{GetF64(p), GetF64(p + 8), GetI64(p + 16)};
}

}  // namespace

const char* WireErrorName(WireError e) {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kUnknownType: return "unknown_type";
    case WireError::kBadPayload: return "bad_payload";
    case WireError::kFrameTooLarge: return "frame_too_large";
    case WireError::kServerStopping: return "server_stopping";
  }
  return "unknown";
}

void EncodeRangeQuery(uint64_t corr_id, const Rect& rect, std::string* out) {
  const size_t at = BeginFrame(MsgType::kRangeQuery, corr_id, out);
  PutF64(rect.min_x, out);
  PutF64(rect.min_y, out);
  PutF64(rect.max_x, out);
  PutF64(rect.max_y, out);
  CloseFrame(at, out);
}

void EncodePointQuery(uint64_t corr_id, const Point& p, std::string* out) {
  const size_t at = BeginFrame(MsgType::kPointQuery, corr_id, out);
  PutPoint(p, out);
  CloseFrame(at, out);
}

void EncodeKnnQuery(uint64_t corr_id, const Point& center, int k,
                    std::string* out) {
  const size_t at = BeginFrame(MsgType::kKnnQuery, corr_id, out);
  PutF64(center.x, out);
  PutF64(center.y, out);
  PutU32(static_cast<uint32_t>(k), out);
  CloseFrame(at, out);
}

void EncodeInsert(uint64_t corr_id, const Point& p, std::string* out) {
  const size_t at = BeginFrame(MsgType::kInsert, corr_id, out);
  PutPoint(p, out);
  CloseFrame(at, out);
}

void EncodeRemove(uint64_t corr_id, const Point& p, std::string* out) {
  const size_t at = BeginFrame(MsgType::kRemove, corr_id, out);
  PutPoint(p, out);
  CloseFrame(at, out);
}

void EncodeHitsResult(MsgType type, uint64_t corr_id,
                      const serve::QueryResult& result, std::string* out) {
  const size_t n = result.hits.size();
  out->reserve(out->size() + kLenPrefixBytes + kFrameHeaderBytes + 12 +
               n * kPointBytes);
  const size_t at = BeginFrame(type, corr_id, out);
  PutU64(result.epoch, out);
  PutU32(static_cast<uint32_t>(n), out);
  // Size the point block once and fill it in place.
  const size_t points_at = out->size();
  out->resize(points_at + n * kPointBytes);
  char* dst = out->data() + points_at;
  for (const Point& p : result.hits) {
    StorePoint(p, dst);
    dst += kPointBytes;
  }
  CloseFrame(at, out);
}

void EncodePointResult(uint64_t corr_id, const serve::QueryResult& result,
                       std::string* out) {
  const size_t at = BeginFrame(MsgType::kPointResult, corr_id, out);
  PutU64(result.epoch, out);
  out->push_back(result.found ? '\1' : '\0');
  CloseFrame(at, out);
}

void EncodeUpdateAck(uint64_t corr_id, std::string* out) {
  const size_t at = BeginFrame(MsgType::kUpdateAck, corr_id, out);
  CloseFrame(at, out);
}

void EncodeError(uint64_t corr_id, WireError code, const std::string& msg,
                 std::string* out) {
  const size_t at = BeginFrame(MsgType::kError, corr_id, out);
  PutU16(static_cast<uint16_t>(code), out);
  const size_t n = msg.size() < 0xffff ? msg.size() : 0xffff;
  PutU16(static_cast<uint16_t>(n), out);
  out->append(msg.data(), n);
  CloseFrame(at, out);
}

WireError DecodeRequest(const Frame& frame, WireRequest* req) {
  if (frame.flags != 0) return WireError::kBadPayload;
  req->type = frame.type;
  req->corr_id = frame.corr_id;
  const uint8_t* p = frame.payload;
  switch (frame.type) {
    case MsgType::kRangeQuery:
      if (frame.payload_len != 32) return WireError::kBadPayload;
      req->rect = Rect::Of(GetF64(p), GetF64(p + 8), GetF64(p + 16),
                           GetF64(p + 24));
      return WireError::kNone;
    case MsgType::kPointQuery:
    case MsgType::kInsert:
    case MsgType::kRemove:
      if (frame.payload_len != kPointBytes) return WireError::kBadPayload;
      req->point = GetPoint(p);
      return WireError::kNone;
    case MsgType::kKnnQuery: {
      if (frame.payload_len != 20) return WireError::kBadPayload;
      req->point = Point{GetF64(p), GetF64(p + 8), 0};
      const uint32_t k = GetU32(p + 16);
      // A zero or absurd k is a malformed request, not a server loop.
      if (k == 0 || k > (1u << 24)) return WireError::kBadPayload;
      req->k = static_cast<int>(k);
      return WireError::kNone;
    }
    default:
      return WireError::kUnknownType;
  }
}

bool DecodeResponse(const Frame& frame, WireResponse* resp) {
  resp->type = frame.type;
  resp->corr_id = frame.corr_id;
  resp->result = serve::QueryResult{};
  resp->error = WireError::kNone;
  resp->error_msg.clear();
  const uint8_t* p = frame.payload;
  switch (frame.type) {
    case MsgType::kRangeResult:
    case MsgType::kKnnResult: {
      if (frame.payload_len < 12) return false;
      resp->result.epoch = GetU64(p);
      const uint32_t n = GetU32(p + 8);
      if (frame.payload_len != 12 + static_cast<size_t>(n) * kPointBytes) {
        return false;
      }
      resp->result.hits.resize(n);
      const uint8_t* src = p + 12;
      for (Point& hit : resp->result.hits) {
        hit = GetPoint(src);
        src += kPointBytes;
      }
      return true;
    }
    case MsgType::kPointResult:
      if (frame.payload_len != 9) return false;
      resp->result.epoch = GetU64(p);
      resp->result.found = p[8] != 0;
      return true;
    case MsgType::kUpdateAck:
      return frame.payload_len == 0;
    case MsgType::kError: {
      if (frame.payload_len < 4) return false;
      resp->error = static_cast<WireError>(GetU16(p));
      const uint16_t n = GetU16(p + 2);
      if (frame.payload_len != 4 + static_cast<size_t>(n)) return false;
      resp->error_msg.assign(reinterpret_cast<const char*>(p + 4), n);
      return true;
    }
    default:
      return false;
  }
}

FrameDecoder::FrameDecoder(size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::Feed(const void* data, size_t n) {
  // Compact consumed bytes first so payload pointers handed out by the
  // previous Next() are the only thing invalidated by a Feed.
  if (consumed_ > 0) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + n);
}

FrameDecoder::Status FrameDecoder::Next(Frame* frame) {
  if (error_ != WireError::kNone) return Status::kError;
  const size_t avail = buf_.size() - consumed_;
  if (avail < kLenPrefixBytes) return Status::kNeedMore;
  const uint8_t* p = buf_.data() + consumed_;
  const uint32_t len = GetU32(p);
  if (len < kFrameHeaderBytes) {
    // A frame too short to carry its own header cannot be skipped reliably.
    error_ = WireError::kBadPayload;
    return Status::kError;
  }
  if (len > max_frame_bytes_) {
    error_ = WireError::kFrameTooLarge;
    return Status::kError;
  }
  if (avail < kLenPrefixBytes + len) return Status::kNeedMore;
  frame->version = p[4];
  frame->type = static_cast<MsgType>(p[5]);
  frame->flags = GetU16(p + 6);
  frame->corr_id = GetU64(p + 8);
  frame->payload = p + kLenPrefixBytes + kFrameHeaderBytes;
  frame->payload_len = len - kFrameHeaderBytes;
  consumed_ += kLenPrefixBytes + len;
  return Status::kFrame;
}

}  // namespace wazi::net
