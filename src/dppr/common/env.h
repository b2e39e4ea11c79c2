#ifndef DPPR_COMMON_ENV_H_
#define DPPR_COMMON_ENV_H_

#include <string>

namespace dppr {

/// Reads a double-valued environment variable, returning `fallback` when the
/// variable is unset or unparsable. The benches use DPPR_BENCH_SCALE to
/// grow/shrink the synthetic datasets.
double GetEnvDouble(const std::string& name, double fallback);

/// Reads an integer environment variable with fallback.
int64_t GetEnvInt(const std::string& name, int64_t fallback);

/// Reads a string environment variable, returning `fallback` when unset.
/// The observability layer reads DPPR_TRACE and DPPR_METRICS_DUMP.
std::string GetEnvString(const std::string& name, const std::string& fallback);

}  // namespace dppr

#endif  // DPPR_COMMON_ENV_H_
