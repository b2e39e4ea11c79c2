#include "dppr/common/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "dppr/common/macros.h"

namespace dppr {
namespace {

/// Dies unless strtod/strtoll consumed all of `raw` and stayed in range: a
/// malformed value must not silently become the fallback or a prefix of
/// itself.
void CheckParsedWhole(const std::string& name, const char* raw,
                      const char* end) {
  if (end != raw && *end == '\0' && errno != ERANGE) return;
  std::fprintf(stderr, "malformed %s value: \"%s\"\n", name.c_str(), raw);
  DPPR_CHECK(false && "numeric environment variable must parse as a whole");
}

}  // namespace

double GetEnvDouble(const std::string& name, double fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(raw, &end);
  CheckParsedWhole(name, raw, end);
  return v;
}

int64_t GetEnvInt(const std::string& name, int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw, &end, 10);
  CheckParsedWhole(name, raw, end);
  return static_cast<int64_t>(v);
}

std::string GetEnvString(const std::string& name, const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  return raw == nullptr ? fallback : std::string(raw);
}

}  // namespace dppr
