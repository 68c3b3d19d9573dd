#ifndef CDBTUNE_PERSIST_ENCODING_H_
#define CDBTUNE_PERSIST_ENCODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace cdbtune::persist {

/// Appends fixed-width little-endian primitives to a byte string. Doubles
/// are bit-cast through uint64_t, so every finite, infinite and NaN value
/// round-trips bitwise — the property the resume-equivalence contract
/// (DESIGN.md §9) is built on; no text formatting is involved.
class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(std::string* out) : external_(out) {}

  void WriteU8(uint8_t v) { Append(&v, 1); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v);

  /// Length-prefixed (u64) byte string.
  void WriteString(std::string_view s);
  /// `n` bit-cast doubles, no length prefix: the same bytes as `n`
  /// WriteDouble calls, written with one copy on a little-endian host.
  void WriteDoubles(const double* p, size_t n);
  /// Length-prefixed (u64) vector of bit-cast doubles.
  void WriteDoubleVec(const std::vector<double>& v);

  void AppendRaw(const void* data, size_t size) { Append(data, size); }

  const std::string& bytes() const { return buffer(); }
  std::string Release() { return std::move(buffer()); }

 private:
  void Append(const void* data, size_t size) {
    buffer().append(static_cast<const char*>(data), size);
  }
  std::string& buffer() { return external_ ? *external_ : owned_; }
  const std::string& buffer() const { return external_ ? *external_ : owned_; }

  std::string owned_;
  std::string* external_ = nullptr;  // Not owned.
};

/// Reads back what Encoder wrote. Errors are sticky: the first short read or
/// malformed length poisons the decoder, every later Read* returns false and
/// leaves its output untouched, and `status()` reports the earliest failure
/// with its byte offset. Callers can therefore chain reads and check once.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* v);
  bool ReadBool(bool* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadI64(int64_t* v);
  bool ReadDouble(double* v);
  bool ReadString(std::string* s);
  /// Reads `n` doubles written by WriteDoubles (or `n` WriteDouble calls)
  /// into `p`, with one copy on a little-endian host. A count the
  /// remaining bytes cannot hold fails before `p` is touched.
  bool ReadDoubles(double* p, size_t n);
  bool ReadDoubleVec(std::vector<double>* v);

  /// True when every byte has been consumed and no error occurred.
  bool Done() const { return ok_ && pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }
  size_t position() const { return pos_; }
  bool ok() const { return ok_; }

  /// kOk while no read failed; kDataLoss (with byte offset) afterwards.
  [[nodiscard]] util::Status status() const;

  /// Requires all bytes consumed; trailing garbage is corruption too.
  [[nodiscard]] util::Status Finish() const;

 private:
  bool Take(void* out, size_t size);
  bool Fail();

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
  size_t error_pos_ = 0;
};

}  // namespace cdbtune::persist

#endif  // CDBTUNE_PERSIST_ENCODING_H_
