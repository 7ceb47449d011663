#include "archive/compression.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <memory>

#include "core/bytes.h"

namespace hedc::archive {

namespace {

constexpr uint32_t kHzipMagic = 0x485a4950;  // "HZIP"
constexpr size_t kWindowSize = 64 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 16;
constexpr size_t kHashBuckets = 1 << 16;
constexpr int kMaxChain = 32;
constexpr uint32_t kNoPosition = ~uint32_t{0};

// Token stream grammar:
//   0x00 <varint n> <n raw bytes>        literal run
//   0x01 <varint dist> <varint len>      back-reference
uint32_t HashQuad(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 16;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Length of the common prefix of `a` and `b`, at most `max_len`. Compares
// 8 bytes at a time; the first set bit of the XOR of two words lies in
// their first differing byte.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t len = 0;
  while (len + 8 <= max_len) {
    uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      int bit = std::endian::native == std::endian::little
                    ? std::countr_zero(diff)
                    : std::countl_zero(diff);
      return len + static_cast<size_t>(bit) / 8;
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

}  // namespace

std::vector<uint8_t> Compress(const std::vector<uint8_t>& input) {
  ByteBuffer out;
  out.PutU32(kHzipMagic);
  out.PutVarint(input.size());

  // Chained hash table over 4-byte prefixes, holding 32-bit positions.
  // Every position is written to `prev` before a chain can reach it.
  const size_t n = input.size();
  assert(n < kNoPosition);
  const uint8_t* data = input.data();
  std::vector<uint32_t> head(kHashBuckets, kNoPosition);
  auto prev = std::make_unique_for_overwrite<uint32_t[]>(n);

  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end > literal_start) {
      out.PutU8(0x00);
      out.PutVarint(end - literal_start);
      out.PutBytes(data + literal_start, end - literal_start);
    }
  };

  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      // Greedy: the longest match among the chain's 32 most recent
      // candidates, the nearest on a tie. A candidate that differs from
      // the input at offset best_len cannot beat the best (zlib's
      // scan-end test), and none can once the best reaches max_len.
      const size_t max_len = std::min(kMaxMatch, n - i);
      const uint8_t* b = data + i;
      const uint32_t h = HashQuad(b);
      uint32_t candidate = head[h];
      for (int chain = 0; candidate != kNoPosition && chain < kMaxChain;
           ++chain, candidate = prev[candidate]) {
        size_t dist = i - candidate;
        if (dist > kWindowSize) break;
        const uint8_t* a = data + candidate;
        if (a[best_len] != b[best_len]) continue;
        size_t len = MatchLength(a, b, max_len);
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (best_len == max_len) break;
        }
      }
      // Insert the current position into its chain.
      prev[i] = head[h];
      head[h] = static_cast<uint32_t>(i);
    }
    if (best_len >= kMinMatch) {
      flush_literals(i);
      out.PutU8(0x01);
      out.PutVarint(best_dist);
      out.PutVarint(best_len);
      // Register skipped positions sparsely (every 2nd) to bound cost. A
      // run of one 4-byte prefix chains into one bucket, so the bucket's
      // head stays in a register until the bucket changes.
      size_t bucket = kHashBuckets;
      uint32_t bucket_head = kNoPosition;
      for (size_t j = i + 1; j < i + best_len && j + 4 <= n; j += 2) {
        uint32_t h = HashQuad(data + j);
        if (h != bucket) {
          if (bucket != kHashBuckets) head[bucket] = bucket_head;
          bucket = h;
          bucket_head = head[h];
        }
        prev[j] = bucket_head;
        bucket_head = static_cast<uint32_t>(j);
      }
      if (bucket != kHashBuckets) head[bucket] = bucket_head;
      i += best_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(n);
  return std::move(out).TakeData();
}

Result<std::vector<uint8_t>> Decompress(const std::vector<uint8_t>& input) {
  ByteReader reader(input);
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kHzipMagic) {
    return Status::Corruption("not an hzip stream (bad magic)");
  }
  uint64_t original_size = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&original_size));
  // The declared size is only trusted as a limit on the tokens below: the
  // reservation stays proportional to the input, and a stream that really
  // expands further grows the buffer token by token.
  std::vector<uint8_t> out;
  out.reserve(std::min<uint64_t>(original_size, 4 * input.size()));
  while (!reader.AtEnd()) {
    uint8_t tag = 0;
    HEDC_RETURN_IF_ERROR(reader.GetU8(&tag));
    if (tag == 0x00) {
      uint64_t n = 0;
      HEDC_RETURN_IF_ERROR(reader.GetVarint(&n));
      if (n > reader.remaining()) {
        return Status::Corruption("hzip literal run past end");
      }
      if (n > original_size - out.size()) {
        return Status::Corruption("hzip output exceeds declared size");
      }
      size_t old = out.size();
      out.resize(old + n);
      HEDC_RETURN_IF_ERROR(reader.GetBytes(out.data() + old, n));
    } else if (tag == 0x01) {
      uint64_t dist = 0, len = 0;
      HEDC_RETURN_IF_ERROR(reader.GetVarint(&dist));
      HEDC_RETURN_IF_ERROR(reader.GetVarint(&len));
      if (dist == 0 || dist > out.size()) {
        return Status::Corruption("hzip back-reference out of window");
      }
      if (len > kMaxMatch || len > original_size - out.size()) {
        return Status::Corruption("hzip back-reference too long");
      }
      size_t src = out.size() - dist;
      size_t dst = out.size();
      out.resize(dst + len);
      for (uint64_t k = 0; k < len; ++k) {
        out[dst + k] = out[src + k];  // may overlap (run-length style)
      }
    } else {
      return Status::Corruption("hzip bad token tag");
    }
  }
  if (out.size() != original_size) {
    return Status::Corruption("hzip size mismatch after decode");
  }
  return out;
}

bool IsCompressed(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) return false;
  ByteReader reader(bytes);
  uint32_t magic = 0;
  return reader.GetU32(&magic).ok() && magic == kHzipMagic;
}

}  // namespace hedc::archive
