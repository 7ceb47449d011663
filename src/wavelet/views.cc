#include "wavelet/views.h"

#include <algorithm>
#include <functional>

namespace hedc::wavelet {

double DensityPlot::MaxCount() const {
  double best = 0;
  for (double c : counts) best = std::max(best, c);
  return best;
}

DensityPlot BuildDensityPlot(
    const std::vector<std::pair<double, double>>& points, size_t x_bins,
    size_t y_bins, double x_lo, double x_hi, double y_lo, double y_hi) {
  DensityPlot plot;
  plot.x_bins = x_bins;
  plot.y_bins = y_bins;
  plot.x_lo = x_lo;
  plot.x_hi = x_hi;
  plot.y_lo = y_lo;
  plot.y_hi = y_hi;
  plot.counts.assign(x_bins * y_bins, 0.0);
  if (x_bins == 0 || y_bins == 0 || x_hi <= x_lo || y_hi <= y_lo) return plot;
  double xw = (x_hi - x_lo) / static_cast<double>(x_bins);
  double yw = (y_hi - y_lo) / static_cast<double>(y_bins);
  for (const auto& [x, y] : points) {
    if (x < x_lo || x >= x_hi || y < y_lo || y >= y_hi) continue;
    size_t bx = std::min(static_cast<size_t>((x - x_lo) / xw), x_bins - 1);
    size_t by = std::min(static_cast<size_t>((y - y_lo) / yw), y_bins - 1);
    plot.counts[by * x_bins + bx] += 1.0;
  }
  return plot;
}

std::vector<Extent> BuildExtentPlot(
    const std::vector<std::pair<double, double>>& points, size_t grid,
    double x_lo, double x_hi, double y_lo, double y_hi) {
  std::vector<Extent> out;
  if (grid == 0 || x_hi <= x_lo || y_hi <= y_lo) return out;
  DensityPlot density =
      BuildDensityPlot(points, grid, grid, x_lo, x_hi, y_lo, y_hi);

  // Union-find over occupied cells; 4-connectivity.
  std::vector<int64_t> parent(grid * grid, -1);
  std::function<int64_t(int64_t)> find = [&](int64_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  for (size_t y = 0; y < grid; ++y) {
    for (size_t x = 0; x < grid; ++x) {
      size_t i = y * grid + x;
      if (density.counts[i] <= 0) continue;
      parent[i] = static_cast<int64_t>(i);
    }
  }
  auto merge = [&](size_t a, size_t b) {
    if (parent[a] < 0 || parent[b] < 0) return;
    int64_t ra = find(static_cast<int64_t>(a));
    int64_t rb = find(static_cast<int64_t>(b));
    if (ra != rb) parent[rb] = ra;
  };
  for (size_t y = 0; y < grid; ++y) {
    for (size_t x = 0; x < grid; ++x) {
      size_t i = y * grid + x;
      if (parent[i] < 0) continue;
      if (x + 1 < grid) merge(i, i + 1);
      if (y + 1 < grid) merge(i, i + grid);
    }
  }

  // Accumulate cluster bounding boxes.
  struct Box {
    size_t x_min, x_max, y_min, y_max;
    int64_t count;
    bool used = false;
  };
  std::vector<Box> boxes(grid * grid);
  double xw = (x_hi - x_lo) / static_cast<double>(grid);
  double yw = (y_hi - y_lo) / static_cast<double>(grid);
  for (size_t y = 0; y < grid; ++y) {
    for (size_t x = 0; x < grid; ++x) {
      size_t i = y * grid + x;
      if (parent[i] < 0) continue;
      size_t root = static_cast<size_t>(find(static_cast<int64_t>(i)));
      Box& box = boxes[root];
      int64_t cell_count = static_cast<int64_t>(density.counts[i]);
      if (!box.used) {
        box = Box{x, x, y, y, cell_count, true};
      } else {
        box.x_min = std::min(box.x_min, x);
        box.x_max = std::max(box.x_max, x);
        box.y_min = std::min(box.y_min, y);
        box.y_max = std::max(box.y_max, y);
        box.count += cell_count;
      }
    }
  }
  for (const Box& box : boxes) {
    if (!box.used) continue;
    out.push_back(Extent{
        x_lo + static_cast<double>(box.x_min) * xw,
        x_lo + static_cast<double>(box.x_max + 1) * xw,
        y_lo + static_cast<double>(box.y_min) * yw,
        y_lo + static_cast<double>(box.y_max + 1) * yw,
        box.count,
    });
  }
  return out;
}

}  // namespace hedc::wavelet
