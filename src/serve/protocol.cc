#include "serve/protocol.h"

#include <string>

#include "fl/checkpoint.h"
#include "util/check.h"

namespace rfed {
namespace serve {

namespace {

/// Embeds a binary blob as a length-prefixed string field.
void WriteBlob(CheckpointWriter* writer, const std::vector<uint8_t>& blob) {
  writer->WriteString(std::string(blob.begin(), blob.end()));
}

std::vector<uint8_t> ReadBlob(CheckpointReader* reader) {
  const std::string s = reader->ReadString();
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// Embeds one FlMessage envelope (its own header + checksum included).
void WriteFlMessage(CheckpointWriter* writer, const FlMessage& message) {
  std::vector<uint8_t> bytes;
  message.EncodeTo(&bytes);
  WriteBlob(writer, bytes);
}

FlMessage ReadFlMessage(CheckpointReader* reader) {
  const std::vector<uint8_t> bytes = ReadBlob(reader);
  size_t offset = 0;
  FlMessage out;
  RFED_CHECK(FlMessage::TryDecode(bytes, &offset, &out))
      << "embedded FlMessage is corrupt";
  RFED_CHECK_EQ(offset, bytes.size()) << "trailing bytes after FlMessage";
  return out;
}

}  // namespace

std::vector<uint8_t> HelloMessage::Encode() const {
  std::vector<uint8_t> out;
  CheckpointWriter writer(&out);
  writer.WriteI32(worker_id);
  writer.WriteI32(num_workers);
  writer.WriteU64(fingerprint);
  return out;
}

HelloMessage HelloMessage::Decode(const std::vector<uint8_t>& payload) {
  CheckpointReader reader(payload);
  HelloMessage out;
  out.worker_id = reader.ReadI32();
  out.num_workers = reader.ReadI32();
  out.fingerprint = reader.ReadU64();
  RFED_CHECK(reader.AtEnd()) << "trailing bytes in HELLO";
  return out;
}

std::vector<uint8_t> HelloAckMessage::Encode() const {
  std::vector<uint8_t> out;
  CheckpointWriter writer(&out);
  WriteBlob(&writer, state);
  return out;
}

HelloAckMessage HelloAckMessage::Decode(const std::vector<uint8_t>& payload) {
  CheckpointReader reader(payload);
  HelloAckMessage out;
  out.state = ReadBlob(&reader);
  RFED_CHECK(reader.AtEnd()) << "trailing bytes in HELLO_ACK";
  return out;
}

std::vector<uint8_t> JobMessage::Encode() const {
  std::vector<uint8_t> out;
  CheckpointWriter writer(&out);
  writer.WriteU64(seq);
  writer.WriteI32(round);
  writer.WriteI32(client);
  WriteBlob(&writer, context);
  WriteBlob(&writer, batcher_base);
  WriteFlMessage(&writer, download);
  return out;
}

JobMessage JobMessage::Decode(const std::vector<uint8_t>& payload) {
  CheckpointReader reader(payload);
  JobMessage out;
  out.seq = reader.ReadU64();
  out.round = reader.ReadI32();
  out.client = reader.ReadI32();
  out.context = ReadBlob(&reader);
  out.batcher_base = ReadBlob(&reader);
  out.download = ReadFlMessage(&reader);
  RFED_CHECK(reader.AtEnd()) << "trailing bytes in JOB";
  return out;
}

std::vector<uint8_t> ResultMessage::Encode() const {
  std::vector<uint8_t> out;
  CheckpointWriter writer(&out);
  writer.WriteU64(seq);
  writer.WriteI32(round);
  writer.WriteI32(client);
  writer.WriteDouble(loss);
  WriteFlMessage(&writer, upload);
  return out;
}

ResultMessage ResultMessage::Decode(const std::vector<uint8_t>& payload) {
  CheckpointReader reader(payload);
  ResultMessage out;
  out.seq = reader.ReadU64();
  out.round = reader.ReadI32();
  out.client = reader.ReadI32();
  out.loss = reader.ReadDouble();
  out.upload = ReadFlMessage(&reader);
  RFED_CHECK(reader.AtEnd()) << "trailing bytes in RESULT";
  return out;
}

std::vector<uint8_t> HelloRejoinMessage::Encode() const {
  std::vector<uint8_t> out;
  CheckpointWriter writer(&out);
  writer.WriteI32(worker_id);
  writer.WriteI32(num_workers);
  writer.WriteU64(fingerprint);
  writer.WriteI32(last_round);
  return out;
}

HelloRejoinMessage HelloRejoinMessage::Decode(
    const std::vector<uint8_t>& payload) {
  CheckpointReader reader(payload);
  HelloRejoinMessage out;
  out.worker_id = reader.ReadI32();
  out.num_workers = reader.ReadI32();
  out.fingerprint = reader.ReadU64();
  out.last_round = reader.ReadI32();
  RFED_CHECK(reader.AtEnd()) << "trailing bytes in HELLO_REJOIN";
  return out;
}

std::vector<uint8_t> PingMessage::Encode() const {
  std::vector<uint8_t> out;
  CheckpointWriter writer(&out);
  writer.WriteU32(seq);
  return out;
}

PingMessage PingMessage::Decode(const std::vector<uint8_t>& payload) {
  CheckpointReader reader(payload);
  PingMessage out;
  out.seq = reader.ReadU32();
  RFED_CHECK(reader.AtEnd()) << "trailing bytes in PING/PONG";
  return out;
}

}  // namespace serve
}  // namespace rfed
