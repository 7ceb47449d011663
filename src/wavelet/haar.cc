#include "wavelet/haar.h"

#include <cmath>

namespace hedc::wavelet {

namespace {
const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

// One forward step over the first `n` entries: pairwise (avg, diff)
// with orthonormal scaling; averages land in [0, n/2), details in
// [n/2, n).
void ForwardStep(std::vector<double>* data, size_t n) {
  std::vector<double> tmp(n);
  size_t half = n / 2;
  for (size_t i = 0; i < half; ++i) {
    double a = (*data)[2 * i];
    double b = (*data)[2 * i + 1];
    tmp[i] = (a + b) * kInvSqrt2;
    tmp[half + i] = (a - b) * kInvSqrt2;
  }
  for (size_t i = 0; i < n; ++i) (*data)[i] = tmp[i];
}

void InverseStep(std::vector<double>* data, size_t n) {
  std::vector<double> tmp(n);
  size_t half = n / 2;
  for (size_t i = 0; i < half; ++i) {
    double s = (*data)[i];
    double d = (*data)[half + i];
    tmp[2 * i] = (s + d) * kInvSqrt2;
    tmp[2 * i + 1] = (s - d) * kInvSqrt2;
  }
  for (size_t i = 0; i < n; ++i) (*data)[i] = tmp[i];
}

int MaxLevels(size_t n) {
  int levels = 0;
  while (n > 1) {
    n /= 2;
    ++levels;
  }
  return levels;
}

}  // namespace

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

size_t PadToPow2(std::vector<double>* data) {
  size_t original = data->size();
  if (original == 0) {
    data->push_back(0.0);
    return original;
  }
  size_t target = NextPow2(original);
  data->resize(target, data->back());
  return original;
}

void HaarForward(std::vector<double>* data, int levels) {
  size_t n = data->size();
  if (n < 2) return;
  int max_levels = MaxLevels(n);
  if (levels <= 0 || levels > max_levels) levels = max_levels;
  size_t len = n;
  for (int l = 0; l < levels && len >= 2; ++l) {
    ForwardStep(data, len);
    len /= 2;
  }
}

void HaarInverse(std::vector<double>* data, int levels) {
  size_t n = data->size();
  if (n < 2) return;
  int max_levels = MaxLevels(n);
  if (levels <= 0 || levels > max_levels) levels = max_levels;
  // Lengths at which forward steps were applied, replayed in reverse.
  std::vector<size_t> lens;
  size_t len = n;
  for (int l = 0; l < levels && len >= 2; ++l) {
    lens.push_back(len);
    len /= 2;
  }
  for (auto it = lens.rbegin(); it != lens.rend(); ++it) {
    InverseStep(data, *it);
  }
}

}  // namespace hedc::wavelet
