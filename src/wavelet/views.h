// Density and extent plots (§6.3).
//
// The range-partitioned wavelet views of §3.4/§6.3 are stored per raw
// unit: each unit is one time partition and carries one progressive
// (HWV3) view stream (see codec.h and dm::ProcessLayer::WriteViewFile).
#ifndef HEDC_WAVELET_VIEWS_H_
#define HEDC_WAVELET_VIEWS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hedc::wavelet {

// Density plot: tuples per (x, y) bin over user-specified ranges —
// "density (number of tuples per bin) ... plots" (§6.3).
struct DensityPlot {
  size_t x_bins = 0;
  size_t y_bins = 0;
  double x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
  std::vector<double> counts;  // row-major [y][x]

  double At(size_t x, size_t y) const { return counts[y * x_bins + x]; }
  double MaxCount() const;
};

// Extent plot entry: location and extent of each tuple/cluster (§6.3).
struct Extent {
  double x_lo, x_hi;
  double y_lo, y_hi;
  int64_t tuple_count;
};

// Builds a density plot from (x, y) points.
DensityPlot BuildDensityPlot(const std::vector<std::pair<double, double>>& points,
                             size_t x_bins, size_t y_bins, double x_lo,
                             double x_hi, double y_lo, double y_hi);

// Greedy grid-clustering of points into extents: adjacent occupied cells
// merge into one extent.
std::vector<Extent> BuildExtentPlot(
    const std::vector<std::pair<double, double>>& points, size_t grid,
    double x_lo, double x_hi, double y_lo, double y_hi);

}  // namespace hedc::wavelet

#endif  // HEDC_WAVELET_VIEWS_H_
