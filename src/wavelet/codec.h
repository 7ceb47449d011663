// Progressive wavelet codec.
//
// Two stream formats share the Haar transform and varint coefficient
// records:
//  - HWV3 (EncodeSignalProgressive), the only format written:
//    coefficients ordered by resolution level, then by decreasing
//    magnitude within each level, with a per-level byte-offset table in
//    the header. Any *byte* prefix of the stream is decodable on its own,
//    so one stored stream serves every resolution: a server slices the
//    first K bytes and the client reconstructs the best K-byte
//    approximation plus a deterministic error bound from the energy
//    accounting carried in the header ("the client works on approximated
//    and aggregated versions of the original data", §6.3).
//  - HWV1, read-only: the legacy format, coefficients in
//    decreasing-magnitude order, so a *coefficient-count* prefix
//    reconstructs the best approximation for that budget. Streams stored
//    before HWV3 still decode; nothing writes new ones.
//
// Decoding with fraction = 1.0 (or the full HWV3 stream) is lossless up
// to quantization, and the reconstructed samples are bit-identical
// between the two formats for the same signal and options: the fill
// order of the coefficient array does not change its contents.
#ifndef HEDC_WAVELET_CODEC_H_
#define HEDC_WAVELET_CODEC_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"

namespace hedc::wavelet {

// Streams travel over HTTP, so header lengths are attacker controlled:
// decoders cap the coefficient-array allocation at this many doubles
// (4M = 32 MB, far above any real view) before trusting a varint.
inline constexpr uint64_t kMaxPaddedLen = 1ull << 22;
// Largest resolution-level index of any decodable HWV3 stream (level 0
// is the DC coefficient, so a 2^k-coefficient stream has levels 0..k).
// Every level at or above a stream's last one selects the same prefix.
inline constexpr size_t kMaxLevelIndex = std::countr_zero(kMaxPaddedLen);

struct CodecOptions {
  // Quantization step: coefficients are stored as round(c / step).
  // Smaller = more fidelity, larger stream.
  double quant_step = 1e-6;
  // Coefficients with |c| < threshold are dropped entirely.
  double threshold = 0.0;
};

// Decodes using roughly the first `fraction` (0..1] of the coefficient
// stream. fraction >= 1 uses everything. Accepts both HWV1 and HWV3
// streams (for HWV3 the fraction selects a coefficient-count prefix in
// stored, i.e. level-major, order).
Result<std::vector<double>> DecodeSignal(const std::vector<uint8_t>& stream,
                                         double fraction = 1.0);

// Number of coefficients retained in the stream (post-threshold).
// Accepts both formats.
Result<size_t> CoefficientCount(const std::vector<uint8_t>& stream);

// Relative L2 error between two signals (||a-b|| / ||a||; 0 when a == 0).
double RelativeL2Error(const std::vector<double>& reference,
                       const std::vector<double>& approximation);

// --- prefix-decodable progressive streams (HWV3) -----------------------

// What a byte-prefix decode reconstructed, plus the energy accounting
// needed for deterministic error bars. With the orthonormal Haar basis
// the L2 norm of the reconstruction residual equals the L2 norm of the
// missing coefficients, so the header's energy totals turn a truncated
// stream into a *bounded* approximation:
//   ||x - x_hat||_2 <= sqrt(undecoded) + sqrt(dropped)
//                      + (quant_step / 2) * sqrt(coeffs_total)
// (triangle inequality over the three residual components: retained
// coefficients missing from the prefix, coefficients dropped at encode
// time, and per-coefficient quantization error). Range aggregates follow
// by Cauchy-Schwarz: |sum over R of (x_i - x_hat_i)| <=
// sqrt(|R|) * L2ErrorBound().
struct PrefixInfo {
  size_t original_len = 0;
  size_t padded_len = 0;
  size_t coeffs_total = 0;    // retained in the full stream
  size_t coeffs_decoded = 0;  // present in this prefix
  size_t levels_total = 0;    // resolution levels (log2(padded_len) + 1)
  size_t levels_complete = 0; // levels fully covered by this prefix
  size_t prefix_bytes = 0;    // bytes of the stream actually consumed
  size_t full_bytes = 0;      // header-declared size of the full stream
  double quant_step = 0;
  double undecoded_energy = 0; // retained energy missing from the prefix
  double dropped_energy = 0;   // energy discarded at encode time

  // Upper bound on ||original - reconstruction||_2.
  double L2ErrorBound() const {
    return std::sqrt(undecoded_energy) + std::sqrt(dropped_energy) +
           (quant_step / 2) * std::sqrt(static_cast<double>(coeffs_total));
  }
  // Upper bound on |sum over any `range_bins` bins of the residual|.
  double SumErrorBound(size_t range_bins) const {
    return std::sqrt(static_cast<double>(range_bins)) * L2ErrorBound();
  }
};

// Encodes `signal` as a prefix-decodable HWV3 stream (level-major
// coefficient order, per-level byte offsets, energy accounting).
std::vector<uint8_t> EncodeSignalProgressive(
    const std::vector<double>& signal, const CodecOptions& options = {});

// True if `stream` starts with the HWV3 magic.
bool IsProgressiveStream(const std::vector<uint8_t>& stream);

// Number of resolution levels in an HWV3 stream: level 0 is the single
// scaling (DC) coefficient, level l adds detail indices [2^(l-1), 2^l).
Result<size_t> ResolutionLevels(const std::vector<uint8_t>& stream);

// Size in bytes of the shortest prefix that fully covers resolution
// levels 0..level (header included). level >= levels-1 returns the full
// stream size.
Result<size_t> PrefixBytesForLevel(const std::vector<uint8_t>& stream,
                                   size_t level);

// Copies the prefix covering levels 0..level out of `stream` — what a
// server ships for a coarse request without touching the tail bytes.
Result<std::vector<uint8_t>> SlicePrefixForLevel(
    const std::vector<uint8_t>& stream, size_t level);

// Decodes the first `size` bytes of an HWV3 stream. The header must be
// complete; coefficient records are consumed while they fit (a record
// split by the prefix boundary is ignored, not an error — that is the
// expected shape of a truncated delivery). Corruption is still detected:
// bad magic, inconsistent header, out-of-range indices.
Result<std::vector<double>> DecodeSignalPrefix(const uint8_t* data,
                                               size_t size,
                                               PrefixInfo* info = nullptr);
inline Result<std::vector<double>> DecodeSignalPrefix(
    const std::vector<uint8_t>& prefix, PrefixInfo* info = nullptr) {
  return DecodeSignalPrefix(prefix.data(), prefix.size(), info);
}

}  // namespace hedc::wavelet

#endif  // HEDC_WAVELET_CODEC_H_
