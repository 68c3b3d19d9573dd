#include "persist/crc32.h"

#include <array>

namespace cdbtune::persist {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight input bytes at once.
constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

/// Little-endian load, whatever the host's byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = c ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (size_t i = 0; i < size; ++i) {
    c = kTables[0][(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Extend(kCrc32Init, data, size);
}

}  // namespace cdbtune::persist
