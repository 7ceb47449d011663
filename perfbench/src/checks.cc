#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "wavelet/codec.h"

namespace perfbench {

namespace {

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// The number after `"key":` in a flat JSON object.
bool JsonNumber(const std::string& body, const std::string& key,
                double* out) {
  std::string marker = "\"" + key + "\":";
  size_t pos = body.find(marker);
  if (pos == std::string::npos) return false;
  const char* start = body.c_str() + pos + marker.size();
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start && std::isfinite(*out);
}

}  // namespace

uint64_t Fnv1a(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<int64_t> IdsAfter(const std::string& text,
                              const std::string& marker) {
  std::vector<int64_t> ids;
  for (size_t pos = text.find(marker); pos != std::string::npos;
       pos = text.find(marker, pos + marker.size())) {
    const char* start = text.c_str() + pos + marker.size();
    char* end = nullptr;
    long long v = std::strtoll(start, &end, 10);
    if (end != start) ids.push_back(v);
  }
  return ids;
}

bool CheckHlePage(int status, const std::string& body, int64_t hle_id,
                  size_t expected_anas) {
  if (status != 200) return false;
  if (body.find("<h2>HLE " + std::to_string(hle_id) + " (") ==
      std::string::npos) {
    return false;
  }
  return CountOf(body, "<div class='ana'>") == expected_anas &&
         CountOf(body, "/image?item=") == expected_anas;
}

bool CheckAnaPage(int status, const std::string& body, int64_t hle_id) {
  return status == 200 &&
         body.find(" on HLE " + std::to_string(hle_id) + "</h2>") !=
             std::string::npos;
}

bool CheckCatalogPage(int status, const std::string& body, size_t min_hles) {
  return status == 200 && CountOf(body, "<li><a href='/hle?id=") >= min_hles;
}

bool CheckImage(int status, const std::string& body, size_t expected_size,
                uint64_t expected_hash) {
  return status == 200 && body.size() == expected_size &&
         Fnv1a(body) == expected_hash;
}

bool CheckViewPrefix(int status, const std::string& body, size_t level,
                     size_t expected_size, uint64_t expected_hash) {
  if (status != 200 || body.size() != expected_size ||
      Fnv1a(body) != expected_hash) {
    return false;
  }
  hedc::wavelet::PrefixInfo info;
  auto decoded = hedc::wavelet::DecodeSignalPrefix(
      reinterpret_cast<const uint8_t*>(body.data()), body.size(), &info);
  return decoded.ok() && !decoded.value().empty() &&
         info.levels_complete >= std::min(level + 1, info.levels_total);
}

bool CheckApprox(int status, const std::string& body, double exact) {
  double estimate = 0, bound = 0;
  if (status != 200 || !JsonNumber(body, "estimate", &estimate) ||
      !JsonNumber(body, "error_bound", &bound) || bound < 0) {
    return false;
  }
  return std::fabs(estimate - exact) <= bound + 2e-6 + 1e-9 * bound;
}

AnalyzeOutcome ParseAnalyzePage(int status, const std::string& body) {
  AnalyzeOutcome out;
  if (status != 200) return out;
  const char* kExisting = "Identical analysis already available: ";
  const char* kFresh = " finished; result stored as ";
  size_t pos = body.find(kExisting);
  if (pos != std::string::npos) {
    out.existing = true;
    pos += std::strlen(kExisting);
  } else {
    pos = body.find(kFresh);
    if (pos == std::string::npos) return out;
    pos += std::strlen(kFresh);
  }
  std::vector<int64_t> ids = IdsAfter(body.substr(pos), "/ana?id=");
  if (ids.empty() || ids[0] <= 0) return out;
  out.ana_id = ids[0];
  out.ok = true;
  return out;
}

}  // namespace perfbench
