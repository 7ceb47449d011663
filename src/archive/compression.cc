#include "archive/compression.h"

#include <algorithm>
#include <cstring>

#include "core/bytes.h"

namespace hedc::archive {

namespace {

constexpr uint32_t kHzipMagic = 0x485a4950;  // "HZIP"
constexpr size_t kWindowSize = 64 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 16;
constexpr size_t kHashBuckets = 1 << 16;

// Token stream grammar:
//   0x00 <varint n> <n raw bytes>        literal run
//   0x01 <varint dist> <varint len>      back-reference
uint32_t HashQuad(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 16;
}

}  // namespace

std::vector<uint8_t> Compress(const std::vector<uint8_t>& input) {
  ByteBuffer out;
  out.PutU32(kHzipMagic);
  out.PutVarint(input.size());

  // Chained hash table over 4-byte prefixes.
  std::vector<int64_t> head(kHashBuckets, -1);
  std::vector<int64_t> prev(input.size(), -1);

  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end > literal_start) {
      out.PutU8(0x00);
      out.PutVarint(end - literal_start);
      out.PutBytes(input.data() + literal_start, end - literal_start);
    }
  };

  size_t i = 0;
  while (i < input.size()) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= input.size()) {
      uint32_t h = HashQuad(input.data() + i);
      int64_t candidate = head[h];
      int chain = 0;
      while (candidate >= 0 && chain < 32) {
        size_t dist = i - static_cast<size_t>(candidate);
        if (dist > kWindowSize) break;
        // Extend match.
        size_t len = 0;
        size_t max_len = std::min(kMaxMatch, input.size() - i);
        const uint8_t* a = input.data() + candidate;
        const uint8_t* b = input.data() + i;
        while (len < max_len && a[len] == b[len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
        }
        candidate = prev[candidate];
        ++chain;
      }
      // Insert current position into the chain.
      prev[i] = head[h];
      head[h] = static_cast<int64_t>(i);
    }
    if (best_len >= kMinMatch) {
      flush_literals(i);
      out.PutU8(0x01);
      out.PutVarint(best_dist);
      out.PutVarint(best_len);
      // Register skipped positions sparsely (every 2nd) to bound cost.
      for (size_t j = i + 1; j < i + best_len && j + 4 <= input.size();
           j += 2) {
        uint32_t h = HashQuad(input.data() + j);
        prev[j] = head[h];
        head[h] = static_cast<int64_t>(j);
      }
      i += best_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(input.size());
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
