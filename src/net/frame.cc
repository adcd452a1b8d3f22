#include "net/frame.h"

#include <cstring>

#include "util/check.h"
#include "util/hash.h"

namespace rfed {
namespace net {

namespace {

void AppendU32(std::vector<uint8_t>* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>((value >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::vector<uint8_t>* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>((value >> (8 * i)) & 0xff));
  }
}

}  // namespace

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload) {
  RFED_CHECK_LE(payload.size(), kMaxFramePayloadBytes);
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameChecksumBytes);
  AppendU32(&out, kFrameMagic);
  AppendU32(&out, static_cast<uint32_t>(type));
  AppendU64(&out, static_cast<uint64_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  const uint32_t checksum = Fnv1a32(out.data(), out.size());
  AppendU32(&out, checksum);
  return out;
}

void FrameAssembler::Feed(const uint8_t* data, size_t length) {
  buffer_.insert(buffer_.end(), data, data + length);
}

FrameAssembler::Status FrameAssembler::Next(Frame* out) {
  if (failed_) return Status::kError;
  if (buffer_.size() < kFrameHeaderBytes) return Status::kNeedMore;
  // Decode the header in place (the deque is contiguous enough to read
  // byte-wise; frames are small so the copy-out below is cheap).
  auto read_u32 = [&](size_t offset) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(buffer_[offset + static_cast<size_t>(i)])
           << (8 * i);
    }
    return v;
  };
  auto read_u64 = [&](size_t offset) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(buffer_[offset + static_cast<size_t>(i)])
           << (8 * i);
    }
    return v;
  };
  const uint32_t magic = read_u32(0);
  if (magic != kFrameMagic) {
    failed_ = true;
    error_ = "bad frame magic";
    return Status::kError;
  }
  const uint64_t payload_len = read_u64(8);
  if (payload_len > kMaxFramePayloadBytes) {
    failed_ = true;
    error_ = "frame payload length exceeds limit";
    return Status::kError;
  }
  const size_t total = kFrameHeaderBytes + static_cast<size_t>(payload_len) +
                       kFrameChecksumBytes;
  if (buffer_.size() < total) return Status::kNeedMore;
  std::vector<uint8_t> frame_bytes(buffer_.begin(),
                                   buffer_.begin() + static_cast<int64_t>(total));
  const size_t checked = total - kFrameChecksumBytes;
  const uint32_t expected = Fnv1a32(frame_bytes.data(), checked);
  uint32_t actual = 0;
  for (int i = 0; i < 4; ++i) {
    actual |= static_cast<uint32_t>(frame_bytes[checked + static_cast<size_t>(i)])
              << (8 * i);
  }
  if (actual != expected) {
    failed_ = true;
    error_ = "frame checksum mismatch";
    return Status::kError;
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<int64_t>(total));
  uint32_t type_word = 0;
  for (int i = 0; i < 4; ++i) {
    type_word |= static_cast<uint32_t>(frame_bytes[4 + static_cast<size_t>(i)])
                 << (8 * i);
  }
  out->type = static_cast<FrameType>(type_word);
  out->checksum = actual;
  out->payload.assign(frame_bytes.begin() + static_cast<int64_t>(kFrameHeaderBytes),
                      frame_bytes.begin() + static_cast<int64_t>(checked));
  return Status::kFrame;
}

bool SendFrame(TcpConnection* conn, FrameType type,
               const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> bytes = EncodeFrame(type, payload);
  return conn->SendAll(bytes.data(), bytes.size());
}

bool RecvFrame(TcpConnection* conn, FrameAssembler* assembler, Frame* out) {
  uint8_t chunk[4096];
  while (true) {
    switch (assembler->Next(out)) {
      case FrameAssembler::Status::kFrame:
        return true;
      case FrameAssembler::Status::kError:
        RFED_CHECK(false) << "corrupt frame stream: " << assembler->error();
        return false;
      case FrameAssembler::Status::kNeedMore:
        break;
    }
    const int64_t got = conn->RecvSome(chunk, sizeof(chunk));
    if (got <= 0) return false;
    assembler->Feed(chunk, static_cast<size_t>(got));
  }
}

}  // namespace net
}  // namespace rfed
