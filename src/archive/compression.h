// "hzip": the gnu-zip stand-in of §2.1.
//
// LZSS-style codec: greedy longest-match against a 64 KiB sliding window,
// emitting literal runs and (distance, length) back-references with varint
// coding. Not deflate-compatible. It is the entropy stage of rendered
// images only: raw data units are stored as plain FITS-lite (hzip grows
// their delta-coded photon payload), and an hzip raw unit is kCorruption.
#ifndef HEDC_ARCHIVE_COMPRESSION_H_
#define HEDC_ARCHIVE_COMPRESSION_H_

#include <cstdint>
#include <vector>

#include "core/status.h"

namespace hedc::archive {

// Compresses `input`; output starts with a magic/size header and is always
// decodable by Decompress (worst case ~ input + small overhead).
std::vector<uint8_t> Compress(const std::vector<uint8_t>& input);

// Returns kCorruption for any malformed stream, including one whose
// declared size or back-references exceed what its tokens can produce.
Result<std::vector<uint8_t>> Decompress(const std::vector<uint8_t>& input);

// True if `bytes` begins with the hzip magic.
bool IsCompressed(const std::vector<uint8_t>& bytes);

}  // namespace hedc::archive

#endif  // HEDC_ARCHIVE_COMPRESSION_H_
