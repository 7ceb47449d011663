// Small string utilities shared across modules (no dependency on absl).
#ifndef HEDC_CORE_STRINGS_H_
#define HEDC_CORE_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hedc {

// Splits `s` on `sep`; empty pieces are kept (like SQL CSV fields).
std::vector<std::string> Split(std::string_view s, char sep);

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

// ASCII case conversion.
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

// Parses a signed integer / double; returns false on malformed input.
bool ParseInt64(std::string_view s, int64_t* out);
bool ParseDouble(std::string_view s, double* out);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace hedc

#endif  // HEDC_CORE_STRINGS_H_
