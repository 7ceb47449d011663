// Legacy HWV1 wavelet streams checked in under tests/data/hwv1 (see the
// README there): nothing writes HWV1 any more, but stored streams must
// keep decoding. Each is FlareLikeSignal(300, seed) from wavelet_test.cc
// encoded with quant_step 1e-4.
#ifndef HEDC_TESTS_HWV1_STREAMS_H_
#define HEDC_TESTS_HWV1_STREAMS_H_

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace hedc::wavelet {

inline constexpr uint64_t kLegacySeeds[] = {1, 7, 42};

// The checked-in stream for `seed`; empty if the file is missing.
inline std::vector<uint8_t> LegacyStream(uint64_t seed) {
  std::ifstream in(std::string(HEDC_TEST_DATA_DIR) + "/hwv1/flare300_seed" +
                       std::to_string(seed) + ".hwv1",
                   std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

}  // namespace hedc::wavelet

#endif  // HEDC_TESTS_HWV1_STREAMS_H_
