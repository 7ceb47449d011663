// Orthonormal 1-D Haar wavelet transforms.
//
// §3.4/§6.3: raw data is pre-processed into wavelet-compressed
// range-partitioned views; clients reconstruct approximations from a
// coefficient prefix. The orthonormal normalization keeps L2 energy, so
// truncating small coefficients bounds reconstruction error.
#ifndef HEDC_WAVELET_HAAR_H_
#define HEDC_WAVELET_HAAR_H_

#include <cstddef>
#include <vector>

namespace hedc::wavelet {

// Rounds up to the next power of two (min 1).
size_t NextPow2(size_t n);

// Forward multi-level transform. Input length must be a power of two;
// use PadToPow2 first otherwise. `levels` = 0 means full decomposition.
void HaarForward(std::vector<double>* data, int levels = 0);

// Inverse of HaarForward with the same `levels`.
void HaarInverse(std::vector<double>* data, int levels = 0);

// Pads with the last value (step extension) to the next power of two;
// returns the original length.
size_t PadToPow2(std::vector<double>* data);

}  // namespace hedc::wavelet

#endif  // HEDC_WAVELET_HAAR_H_
