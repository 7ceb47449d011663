#include "wavelet/codec.h"

#include <algorithm>
#include <cmath>

#include "core/bytes.h"
#include "wavelet/haar.h"

namespace hedc::wavelet {

namespace {
constexpr uint32_t kCodecMagic = 0x48575631;        // "HWV1"
constexpr uint32_t kProgressiveMagic = 0x48575633;  // "HWV3"

bool IsPow2(uint64_t n) { return n != 0 && (n & (n - 1)) == 0; }

constexpr size_t LevelCount(size_t padded_len) {
  size_t levels = 1;
  while ((1ull << (levels - 1)) < padded_len) ++levels;
  return levels;  // log2(padded_len) + 1
}
static_assert(LevelCount(kMaxPaddedLen) - 1 == kMaxLevelIndex);

struct Entry {
  uint32_t index;
  double value;
};

// Haar transform + threshold/quantization survivors.
std::vector<Entry> RetainedCoefficients(const std::vector<double>& signal,
                                        const CodecOptions& options,
                                        size_t* original_len,
                                        size_t* padded_len,
                                        double* dropped_energy) {
  std::vector<double> coeffs = signal;
  *original_len = coeffs.size();
  PadToPow2(&coeffs);
  HaarForward(&coeffs);
  *padded_len = coeffs.size();

  std::vector<Entry> entries;
  entries.reserve(coeffs.size());
  double dropped = 0;
  for (size_t i = 0; i < coeffs.size(); ++i) {
    if (std::fabs(coeffs[i]) >= options.threshold &&
        std::fabs(coeffs[i]) >= options.quant_step / 2) {
      entries.push_back({static_cast<uint32_t>(i), coeffs[i]});
    } else {
      dropped += coeffs[i] * coeffs[i];
    }
  }
  *dropped_energy = dropped;
  return entries;
}

}  // namespace

std::vector<uint8_t> EncodeSignalProgressive(const std::vector<double>& signal,
                                             const CodecOptions& options) {
  size_t original_len = 0, padded_len = 0;
  double dropped_energy = 0;
  std::vector<Entry> entries = RetainedCoefficients(
      signal, options, &original_len, &padded_len, &dropped_energy);
  // Level-major order; best-first (decreasing magnitude) within a level
  // so even a prefix that splits a level is the best prefix of that
  // length. Index is the tiebreak for a deterministic stream. The entries
  // arrive in index order, which is already level-major: level 0 is index
  // 0 and detail level l >= 1 is [2^(l-1), 2^l). So only each level's run
  // is sorted.
  size_t num_levels = LevelCount(padded_len);
  std::vector<size_t> level_begin(num_levels + 1, entries.size());
  auto run = entries.begin();
  for (size_t level = 0; level < num_levels; ++level) {
    level_begin[level] = static_cast<size_t>(run - entries.begin());
    auto run_end = std::partition_point(
        run, entries.end(),
        [level](const Entry& e) { return e.index < (uint64_t{1} << level); });
    std::sort(run, run_end, [](const Entry& a, const Entry& b) {
      double ma = std::fabs(a.value), mb = std::fabs(b.value);
      if (ma != mb) return ma > mb;
      return a.index < b.index;
    });
    run = run_end;
  }

  // Payload first: per-level record counts and end offsets feed the
  // header's table, and the retained-energy total is accumulated over
  // the *dequantized* values in storage order so a full-prefix decode
  // reproduces it bit-exactly.
  ByteBuffer payload;
  std::vector<uint64_t> level_counts(num_levels, 0);
  std::vector<uint64_t> level_ends(num_levels, 0);
  double retained_energy = 0;
  for (size_t level = 0; level < num_levels; ++level) {
    for (size_t i = level_begin[level]; i < level_begin[level + 1]; ++i) {
      const Entry& e = entries[i];
      int64_t quantized =
          static_cast<int64_t>(std::llround(e.value / options.quant_step));
      payload.PutVarint(e.index);
      payload.PutSignedVarint(quantized);
      double dq = static_cast<double>(quantized) * options.quant_step;
      retained_energy += dq * dq;
    }
    level_counts[level] = level_begin[level + 1] - level_begin[level];
    level_ends[level] = payload.size();
  }

  ByteBuffer out;
  out.PutU32(kProgressiveMagic);
  out.PutVarint(original_len);
  out.PutVarint(padded_len);
  out.PutF64(options.quant_step);
  out.PutF64(retained_energy);
  out.PutF64(dropped_energy);
  out.PutVarint(entries.size());
  out.PutVarint(num_levels);
  for (size_t level = 0; level < num_levels; ++level) {
    out.PutVarint(level_counts[level]);
    out.PutVarint(level_ends[level]);
  }
  out.PutBytes(payload.data().data(), payload.size());
  return std::move(out).TakeData();
}

namespace {

struct StreamHeader {
  size_t original_len;
  size_t padded_len;
  double quant_step;
  size_t num_coeffs;
};

Status ReadHeader(ByteReader* reader, StreamHeader* header) {
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader->GetU32(&magic));
  if (magic != kCodecMagic) {
    return Status::Corruption("not a wavelet stream (bad magic)");
  }
  uint64_t original_len = 0, padded_len = 0, num_coeffs = 0;
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&original_len));
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&padded_len));
  HEDC_RETURN_IF_ERROR(reader->GetF64(&header->quant_step));
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&num_coeffs));
  header->original_len = original_len;
  header->padded_len = padded_len;
  header->num_coeffs = num_coeffs;
  if (padded_len == 0 || padded_len > kMaxPaddedLen || !IsPow2(padded_len) ||
      padded_len < original_len || !std::isfinite(header->quant_step) ||
      header->quant_step <= 0) {
    return Status::Corruption("wavelet stream header invalid");
  }
  // Each record is at least two bytes; a count that cannot fit in the
  // remaining stream is hostile, not merely truncated.
  if (num_coeffs > padded_len || num_coeffs * 2 > reader->remaining()) {
    return Status::Corruption("wavelet coefficient count exceeds stream");
  }
  return Status::Ok();
}

// HWV3 header plus the derived payload geometry.
struct ProgressiveHeader {
  size_t original_len = 0;
  size_t padded_len = 0;
  double quant_step = 0;
  double retained_energy = 0;
  double dropped_energy = 0;
  size_t num_coeffs = 0;
  size_t num_levels = 0;
  std::vector<uint64_t> level_counts;
  std::vector<uint64_t> level_ends;  // payload-relative byte offsets
  size_t header_bytes = 0;           // stream offset where payload starts
};

Status ReadProgressiveHeader(ByteReader* reader, ProgressiveHeader* h) {
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader->GetU32(&magic));
  if (magic != kProgressiveMagic) {
    return Status::Corruption("not a progressive wavelet stream (bad magic)");
  }
  uint64_t original_len = 0, padded_len = 0, num_coeffs = 0, num_levels = 0;
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&original_len));
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&padded_len));
  HEDC_RETURN_IF_ERROR(reader->GetF64(&h->quant_step));
  HEDC_RETURN_IF_ERROR(reader->GetF64(&h->retained_energy));
  HEDC_RETURN_IF_ERROR(reader->GetF64(&h->dropped_energy));
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&num_coeffs));
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&num_levels));
  if (padded_len == 0 || padded_len > kMaxPaddedLen || !IsPow2(padded_len) ||
      padded_len < original_len || !std::isfinite(h->quant_step) ||
      h->quant_step <= 0 || !std::isfinite(h->retained_energy) ||
      h->retained_energy < 0 || !std::isfinite(h->dropped_energy) ||
      h->dropped_energy < 0) {
    return Status::Corruption("progressive stream header invalid");
  }
  if (num_levels != LevelCount(padded_len) || num_coeffs > padded_len) {
    return Status::Corruption("progressive stream geometry invalid");
  }
  h->original_len = original_len;
  h->padded_len = padded_len;
  h->num_coeffs = num_coeffs;
  h->num_levels = num_levels;
  h->level_counts.resize(num_levels);
  h->level_ends.resize(num_levels);
  uint64_t total_count = 0;
  uint64_t prev_end = 0;
  for (size_t l = 0; l < num_levels; ++l) {
    HEDC_RETURN_IF_ERROR(reader->GetVarint(&h->level_counts[l]));
    HEDC_RETURN_IF_ERROR(reader->GetVarint(&h->level_ends[l]));
    // Level l has at most 2^(l-1) coefficients (1 for level 0).
    uint64_t capacity = l == 0 ? 1 : (1ull << (l - 1));
    if (h->level_counts[l] > capacity || h->level_ends[l] < prev_end) {
      return Status::Corruption("progressive level table invalid");
    }
    total_count += h->level_counts[l];
    prev_end = h->level_ends[l];
  }
  if (total_count != num_coeffs || prev_end / 2 < num_coeffs) {
    return Status::Corruption("progressive level table inconsistent");
  }
  h->header_bytes = reader->position();
  return Status::Ok();
}

Result<std::vector<double>> DecodeProgressive(const uint8_t* data,
                                              size_t size, size_t max_coeffs,
                                              PrefixInfo* info) {
  ByteReader reader(data, size);
  ProgressiveHeader header;
  HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&reader, &header));

  size_t payload_total = header.level_ends.empty()
                             ? 0
                             : static_cast<size_t>(header.level_ends.back());
  // Stop at whichever comes first: the prefix boundary or the declared
  // end of the payload (trailing junk past it is never parsed). When the
  // whole stream is present a parse failure is corruption; in a shorter
  // prefix a record split by the boundary is the expected tail of a
  // truncated delivery and decoding simply stops there.
  bool full_stream = size >= header.header_bytes + payload_total;
  size_t limit = std::min(size, header.header_bytes + payload_total);

  std::vector<double> coeffs(header.padded_len, 0.0);
  double decoded_energy = 0;
  size_t decoded = 0;
  while (decoded < max_coeffs && decoded < header.num_coeffs &&
         reader.position() < limit) {
    uint64_t index = 0;
    int64_t quantized = 0;
    if (!reader.GetVarint(&index).ok() ||
        !reader.GetSignedVarint(&quantized).ok() ||
        reader.position() > limit) {
      if (full_stream) {
        return Status::Corruption("progressive coefficient record invalid");
      }
      break;
    }
    if (index >= header.padded_len) {
      return Status::Corruption("wavelet coefficient index out of range");
    }
    double value = static_cast<double>(quantized) * header.quant_step;
    coeffs[index] = value;
    decoded_energy += value * value;
    ++decoded;
  }
  if (full_stream && max_coeffs >= header.num_coeffs &&
      decoded < header.num_coeffs) {
    return Status::Corruption("progressive payload short of coefficients");
  }

  if (info != nullptr) {
    info->original_len = header.original_len;
    info->padded_len = header.padded_len;
    info->coeffs_total = header.num_coeffs;
    info->coeffs_decoded = decoded;
    info->levels_total = header.num_levels;
    info->prefix_bytes = std::min(size, header.header_bytes + payload_total);
    info->full_bytes = header.header_bytes + payload_total;
    info->quant_step = header.quant_step;
    // Summation order matches the encoder (storage order), so a full
    // decode cancels exactly; clamp guards rounding on partial decodes.
    info->undecoded_energy =
        std::max(0.0, header.retained_energy - decoded_energy);
    info->dropped_energy = header.dropped_energy;
    info->levels_complete = 0;
    size_t cumulative = 0;
    for (size_t l = 0; l < header.num_levels; ++l) {
      cumulative += header.level_counts[l];
      if (decoded >= cumulative) {
        info->levels_complete = l + 1;
      } else {
        break;
      }
    }
  }

  HaarInverse(&coeffs);
  coeffs.resize(header.original_len);
  return coeffs;
}

}  // namespace

Result<std::vector<double>> DecodeSignal(const std::vector<uint8_t>& stream,
                                         double fraction) {
  if (stream.size() >= 4) {
    uint32_t magic = static_cast<uint32_t>(stream[0]) |
                     static_cast<uint32_t>(stream[1]) << 8 |
                     static_cast<uint32_t>(stream[2]) << 16 |
                     static_cast<uint32_t>(stream[3]) << 24;
    if (magic == kProgressiveMagic) {
      ByteReader peek(stream);
      ProgressiveHeader header;
      HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&peek, &header));
      size_t take = header.num_coeffs;
      if (fraction < 1.0) {
        take = static_cast<size_t>(
            std::ceil(fraction * static_cast<double>(header.num_coeffs)));
        if (fraction > 0 && take == 0) take = 1;
      }
      return DecodeProgressive(stream.data(), stream.size(), take, nullptr);
    }
  }

  ByteReader reader(stream);
  StreamHeader header;
  HEDC_RETURN_IF_ERROR(ReadHeader(&reader, &header));

  size_t take = header.num_coeffs;
  if (fraction < 1.0) {
    take = static_cast<size_t>(
        std::ceil(fraction * static_cast<double>(header.num_coeffs)));
    if (fraction > 0 && take == 0) take = 1;
  }

  std::vector<double> coeffs(header.padded_len, 0.0);
  for (size_t i = 0; i < header.num_coeffs && i < take; ++i) {
    uint64_t index = 0;
    int64_t quantized = 0;
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&index));
    HEDC_RETURN_IF_ERROR(reader.GetSignedVarint(&quantized));
    if (index >= header.padded_len) {
      return Status::Corruption("wavelet coefficient index out of range");
    }
    coeffs[index] = static_cast<double>(quantized) * header.quant_step;
  }

  HaarInverse(&coeffs);
  coeffs.resize(header.original_len);
  return coeffs;
}

Result<std::vector<double>> DecodeSignalPrefix(const uint8_t* data,
                                               size_t size,
                                               PrefixInfo* info) {
  return DecodeProgressive(data, size, static_cast<size_t>(-1), info);
}

bool IsProgressiveStream(const std::vector<uint8_t>& stream) {
  if (stream.size() < 4) return false;
  uint32_t magic = static_cast<uint32_t>(stream[0]) |
                   static_cast<uint32_t>(stream[1]) << 8 |
                   static_cast<uint32_t>(stream[2]) << 16 |
                   static_cast<uint32_t>(stream[3]) << 24;
  return magic == kProgressiveMagic;
}

Result<size_t> ResolutionLevels(const std::vector<uint8_t>& stream) {
  ByteReader reader(stream);
  ProgressiveHeader header;
  HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&reader, &header));
  return header.num_levels;
}

Result<size_t> PrefixBytesForLevel(const std::vector<uint8_t>& stream,
                                   size_t level) {
  ByteReader reader(stream);
  ProgressiveHeader header;
  HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&reader, &header));
  if (level >= header.num_levels) level = header.num_levels - 1;
  size_t bytes =
      header.header_bytes + static_cast<size_t>(header.level_ends[level]);
  return std::min(bytes, stream.size());
}

Result<std::vector<uint8_t>> SlicePrefixForLevel(
    const std::vector<uint8_t>& stream, size_t level) {
  HEDC_ASSIGN_OR_RETURN(size_t bytes, PrefixBytesForLevel(stream, level));
  return std::vector<uint8_t>(stream.begin(),
                              stream.begin() + static_cast<int64_t>(bytes));
}

Result<size_t> CoefficientCount(const std::vector<uint8_t>& stream) {
  if (IsProgressiveStream(stream)) {
    ByteReader reader(stream);
    ProgressiveHeader header;
    HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&reader, &header));
    return header.num_coeffs;
  }
  ByteReader reader(stream);
  StreamHeader header;
  HEDC_RETURN_IF_ERROR(ReadHeader(&reader, &header));
  return header.num_coeffs;
}

double RelativeL2Error(const std::vector<double>& reference,
                       const std::vector<double>& approximation) {
  double err = 0, norm = 0;
  size_t n = std::min(reference.size(), approximation.size());
  for (size_t i = 0; i < n; ++i) {
    double d = reference[i] - approximation[i];
    err += d * d;
    norm += reference[i] * reference[i];
  }
  for (size_t i = n; i < reference.size(); ++i) {
    err += reference[i] * reference[i];
    norm += reference[i] * reference[i];
  }
  if (norm == 0) return err == 0 ? 0.0 : 1.0;
  return std::sqrt(err / norm);
}

}  // namespace hedc::wavelet
