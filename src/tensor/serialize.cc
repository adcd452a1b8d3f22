#include "tensor/serialize.h"

#include <cstring>

#include "util/check.h"

namespace rfed {
namespace {

template <typename T>
void AppendRaw(const T& value, std::vector<uint8_t>* out) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
T ReadRaw(const std::vector<uint8_t>& buf, size_t* offset) {
  RFED_CHECK_LE(*offset + sizeof(T), buf.size());
  T value;
  std::memcpy(&value, buf.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return value;
}

}  // namespace

int64_t SerializedBytes(const Tensor& t) {
  return static_cast<int64_t>(sizeof(int64_t)) * (1 + t.rank()) +
         PayloadBytes(t);
}

int64_t PayloadBytes(const Tensor& t) {
  return t.size() * static_cast<int64_t>(sizeof(float));
}

void SerializeTensor(const Tensor& t, std::vector<uint8_t>* out) {
  AppendRaw<int64_t>(t.rank(), out);
  for (int i = 0; i < t.rank(); ++i) AppendRaw<int64_t>(t.dim(i), out);
  const auto* p = reinterpret_cast<const uint8_t*>(t.data());
  out->insert(out->end(), p, p + t.size() * sizeof(float));
}

Tensor DeserializeTensor(const std::vector<uint8_t>& buf, size_t* offset) {
  const int64_t rank = ReadRaw<int64_t>(buf, offset);
  RFED_CHECK_GE(rank, 0);
  RFED_CHECK_LE(rank, 8);
  std::vector<int64_t> dims;
  dims.reserve(static_cast<size_t>(rank));
  for (int64_t i = 0; i < rank; ++i) {
    dims.push_back(ReadRaw<int64_t>(buf, offset));
  }
  Shape shape(std::move(dims));
  const int64_t n = shape.num_elements();
  RFED_CHECK_LE(*offset + static_cast<size_t>(n) * sizeof(float), buf.size());
  Tensor out = Tensor::Uninitialized(std::move(shape));
  if (n > 0) {
    std::memcpy(out.data(), buf.data() + *offset,
                static_cast<size_t>(n) * sizeof(float));
  }
  *offset += static_cast<size_t>(n) * sizeof(float);
  return out;
}

}  // namespace rfed
