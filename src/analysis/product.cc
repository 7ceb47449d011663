#include "analysis/product.h"

#include <algorithm>
#include <utility>

#include "archive/compression.h"
#include "core/bytes.h"

namespace hedc::analysis {

namespace {

constexpr uint32_t kGifMagic = 0x48474946;  // "HGIF"

// The pixel range exactly as a std::min/std::max scan from pixels[0]
// finds it: NaN pixels are skipped unless pixels[0] is one, and an
// extreme of 0 keeps the sign of the first zero. Four interleaved scans
// let the compares overlap; the ranges differ only in which of +0 and -0
// they keep, so a zero extreme is taken from the first zero pixel.
std::pair<double, double> PixelRange(const std::vector<double>& pixels) {
  if (pixels.empty()) return {0.0, 0.0};
  const double* p = pixels.data();
  const size_t n = pixels.size();
  double lo0 = p[0], lo1 = p[0], lo2 = p[0], lo3 = p[0];
  double hi0 = p[0], hi1 = p[0], hi2 = p[0], hi3 = p[0];
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    lo0 = std::min(lo0, p[k]);
    lo1 = std::min(lo1, p[k + 1]);
    lo2 = std::min(lo2, p[k + 2]);
    lo3 = std::min(lo3, p[k + 3]);
    hi0 = std::max(hi0, p[k]);
    hi1 = std::max(hi1, p[k + 1]);
    hi2 = std::max(hi2, p[k + 2]);
    hi3 = std::max(hi3, p[k + 3]);
  }
  for (; k < n; ++k) {
    lo0 = std::min(lo0, p[k]);
    hi0 = std::max(hi0, p[k]);
  }
  double min = std::min(std::min(lo0, lo1), std::min(lo2, lo3));
  double max = std::max(std::max(hi0, hi1), std::max(hi2, hi3));
  auto first_zero = [&] { return *std::find(p, p + n, 0.0); };
  if (min == 0) min = first_zero();
  if (max == 0) max = first_zero();
  return {min, max};
}

}  // namespace

double Image::MaxPixel() const {
  double best = 0;
  for (double p : pixels) best = std::max(best, p);
  return best;
}

double Image::TotalFlux() const {
  double sum = 0;
  for (double p : pixels) sum += p;
  return sum;
}

std::vector<uint8_t> RenderImage(const Image& image) {
  ByteBuffer header;
  header.PutU32(kGifMagic);
  header.PutVarint(image.width);
  header.PutVarint(image.height);
  auto [lo, hi] = PixelRange(image.pixels);
  header.PutF64(lo);
  header.PutF64(hi);
  // 8-bit quantized pixel plane, all 0 for a flat image: v * 255 rounded
  // half away from zero. v * 255 lies in [0, 255] (it is NaN only for a
  // NaN or infinite pixel, which maps to 0), so the truncation is in range,
  // the fraction is exact and adding 1 when it is >= 0.5 rounds as
  // std::lround does. A pixel equal to the one before it takes its level:
  // plots and count images are mostly runs of one value.
  const size_t n = image.pixels.size();
  const double* pixels = image.pixels.data();
  std::vector<uint8_t> plane(n);
  uint8_t* out = plane.data();
  const double range = hi - lo;
  auto quantize = [lo, range](double pixel) {
    double scaled = (pixel - lo) / range * 255.0;
    if (!(scaled >= 0.0)) scaled = 0.0;
    double whole = static_cast<double>(static_cast<uint32_t>(scaled));
    return static_cast<uint8_t>(whole + (scaled - whole >= 0.5));
  };
  if (range > 0) {
    double last = pixels[0];
    uint8_t level = quantize(last);
    for (size_t k = 0; k < n; ++k) {
      if (pixels[k] != last) {
        last = pixels[k];
        level = quantize(last);
      }
      out[k] = level;
    }
  }
  std::vector<uint8_t> compressed = archive::Compress(plane);
  header.PutVarint(compressed.size());
  header.PutBytes(compressed.data(), compressed.size());
  return std::move(header).TakeData();
}

Result<Image> ParseRenderedImage(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kGifMagic) {
    return Status::Corruption("not a GIF-lite image (bad magic)");
  }
  uint64_t width = 0, height = 0, clen = 0;
  double lo = 0, hi = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&width));
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&height));
  HEDC_RETURN_IF_ERROR(reader.GetF64(&lo));
  HEDC_RETURN_IF_ERROR(reader.GetF64(&hi));
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&clen));
  std::vector<uint8_t> compressed(clen);
  HEDC_RETURN_IF_ERROR(reader.GetBytes(compressed.data(), clen));
  HEDC_ASSIGN_OR_RETURN(std::vector<uint8_t> plane,
                        archive::Decompress(compressed));
  if (plane.size() != width * height) {
    return Status::Corruption("GIF-lite pixel plane size mismatch");
  }
  Image image;
  image.width = width;
  image.height = height;
  image.pixels.reserve(plane.size());
  double range = hi - lo;
  for (uint8_t q : plane) {
    image.pixels.push_back(lo + range * (static_cast<double>(q) / 255.0));
  }
  return image;
}

std::vector<uint8_t> RenderSeries(const Series& series, size_t width,
                                  size_t height) {
  Image plot;
  plot.width = width;
  plot.height = height;
  plot.pixels.assign(width * height, 0.0);
  if (!series.y.empty() && width > 0 && height > 0) {
    double y_lo = series.y[0], y_hi = series.y[0];
    for (double v : series.y) {
      y_lo = std::min(y_lo, v);
      y_hi = std::max(y_hi, v);
    }
    double range = y_hi - y_lo;
    for (size_t x = 0; x < width; ++x) {
      size_t idx = x * series.y.size() / width;
      double v = series.y[std::min(idx, series.y.size() - 1)];
      double norm = range > 0 ? (v - y_lo) / range : 0.5;
      size_t py = height - 1 -
                  std::min(static_cast<size_t>(norm * (height - 1)),
                           height - 1);
      plot.pixels[py * width + x] = 1.0;
    }
  }
  return RenderImage(plot);
}

}  // namespace hedc::analysis
