#include "core/crc32.h"

#include <bit>
#include <cstring>

namespace hedc {
namespace {

// The word loads below read 8 input bytes as two little-endian uint32s.
static_assert(std::endian::native == std::endian::little,
              "slicing-by-8 CRC assumes a little-endian host");

// Slicing-by-8 tables: entries[0] is the classic byte-at-a-time table;
// entries[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the register by 8 input bytes at once.
struct Crc32Table {
  uint32_t entries[8][256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xff] ^ (prev >> 8);
      }
    }
  }
};

const Crc32Table& Table() {
  static const Crc32Table* const kTable = new Crc32Table();
  return *kTable;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed) {
  const auto& t = Table().entries;
  uint32_t c = seed ^ 0xffffffffu;
  for (; n >= 8; n -= 8, data += 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++data) {
    c = t[0][(c ^ *data) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace hedc
