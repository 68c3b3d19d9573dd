#include "persist/encoding.h"

#include <bit>
#include <limits>

namespace cdbtune::persist {

void Encoder::WriteU32(uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  Append(b, sizeof(b));
}

void Encoder::WriteU64(uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  Append(b, sizeof(b));
}

void Encoder::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void Encoder::WriteString(std::string_view s) {
  WriteU64(s.size());
  Append(s.data(), s.size());
}

void Encoder::WriteDoubles(const double* p, size_t n) {
  // A little-endian double's in-memory bytes are its WriteDouble bytes.
  if constexpr (std::endian::native == std::endian::little) {
    Append(p, n * sizeof(double));
  } else {
    for (size_t i = 0; i < n; ++i) WriteDouble(p[i]);
  }
}

void Encoder::WriteDoubleVec(const std::vector<double>& v) {
  WriteU64(v.size());
  WriteDoubles(v.data(), v.size());
}

bool Decoder::Take(void* out, size_t size) {
  if (!ok_) return false;
  if (size > bytes_.size() - pos_) return Fail();
  std::memcpy(out, bytes_.data() + pos_, size);
  pos_ += size;
  return true;
}

bool Decoder::Fail() {
  if (ok_) {
    ok_ = false;
    error_pos_ = pos_;
  }
  return false;
}

bool Decoder::ReadU8(uint8_t* v) { return Take(v, 1); }

bool Decoder::ReadBool(bool* v) {
  uint8_t byte = 0;
  if (!ReadU8(&byte)) return false;
  if (byte > 1) return Fail();
  *v = byte != 0;
  return true;
}

bool Decoder::ReadU32(uint32_t* v) {
  unsigned char b[4];
  if (!Take(b, sizeof(b))) return false;
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<uint32_t>(b[i]) << (8 * i);
  *v = value;
  return true;
}

bool Decoder::ReadU64(uint64_t* v) {
  unsigned char b[8];
  if (!Take(b, sizeof(b))) return false;
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<uint64_t>(b[i]) << (8 * i);
  *v = value;
  return true;
}

bool Decoder::ReadI64(int64_t* v) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  *v = static_cast<int64_t>(bits);
  return true;
}

bool Decoder::ReadDouble(double* v) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool Decoder::ReadString(std::string* s) {
  uint64_t size = 0;
  if (!ReadU64(&size)) return false;
  if (size > bytes_.size() - pos_) return Fail();
  s->assign(bytes_.data() + pos_, size);
  pos_ += size;
  return true;
}

bool Decoder::ReadDoubles(double* p, size_t n) {
  if (!ok_) return false;
  // Each element takes 8 bytes; an impossible count means a corrupt length.
  if (n > remaining() / sizeof(double)) return Fail();
  if constexpr (std::endian::native == std::endian::little) {
    // `p` may be null when n == 0 (an empty vector's data()).
    return n == 0 || Take(p, n * sizeof(double));
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (!ReadDouble(&p[i])) return false;
    }
    return true;
  }
}

bool Decoder::ReadDoubleVec(std::vector<double>* v) {
  uint64_t size = 0;
  if (!ReadU64(&size)) return false;
  // Refused before the allocation, not only inside ReadDoubles.
  if (size > remaining() / sizeof(double)) return Fail();
  std::vector<double> values(size);
  if (!ReadDoubles(values.data(), values.size())) return false;
  *v = std::move(values);
  return true;
}

util::Status Decoder::status() const {
  if (ok_) return util::Status::Ok();
  return util::Status::DataLoss("decode error at byte offset " +
                                std::to_string(error_pos_) + " of " +
                                std::to_string(bytes_.size()));
}

util::Status Decoder::Finish() const {
  CDBTUNE_RETURN_IF_ERROR(status());
  if (pos_ != bytes_.size()) {
    return util::Status::DataLoss(
        "trailing bytes after decoded payload: consumed " +
        std::to_string(pos_) + " of " + std::to_string(bytes_.size()));
  }
  return util::Status::Ok();
}

}  // namespace cdbtune::persist
