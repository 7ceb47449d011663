// Response checks: every HTTP answer the generators receive is verified
// against what setup put into the repository, and each failed check
// counts into the workload's error rate.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// 64-bit FNV-1a over raw bytes.
uint64_t Fnv1a(const void* data, size_t n);
inline uint64_t Fnv1a(const std::string& s) { return Fnv1a(s.data(), s.size()); }

// Integers following each occurrence of `marker` in `text`, in order
// ("/image?item=" on an HLE page yields its thumbnail item ids).
std::vector<int64_t> IdsAfter(const std::string& text,
                              const std::string& marker);

// /hle?id=H: HTTP 200 and exactly `expected_anas` analysis rows, each
// with its thumbnail link.
bool CheckHlePage(int status, const std::string& body, int64_t hle_id,
                  size_t expected_anas);
// /ana?id=A: HTTP 200, detail page of an analysis on HLE `hle_id`.
bool CheckAnaPage(int status, const std::string& body, int64_t hle_id);
// /catalog: HTTP 200 and at least `min_hles` HLE links.
bool CheckCatalogPage(int status, const std::string& body, size_t min_hles);
// /image: HTTP 200 and the archived bytes, compared by size and hash.
bool CheckImage(int status, const std::string& body, size_t expected_size,
                uint64_t expected_hash);
// /view?resolution=R: HTTP 200, the expected prefix bytes, and a prefix
// that decodes with wavelet::DecodeSignalPrefix covering levels 0..R.
bool CheckViewPrefix(int status, const std::string& body, size_t level,
                     size_t expected_size, uint64_t expected_hash);
// /approx: HTTP 200 JSON whose estimate lies within its error_bound of
// `exact` (printing rounds both to 6 decimals; the tolerance allows it).
bool CheckApprox(int status, const std::string& body, double exact);

// What an /analyze page says.
struct AnalyzeOutcome {
  bool ok = false;        // HTTP 200 and one of the two page shapes
  bool existing = false;  // "Identical analysis already available"
  int64_t ana_id = 0;
};
AnalyzeOutcome ParseAnalyzePage(int status, const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
