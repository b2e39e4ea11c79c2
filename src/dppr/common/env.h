#ifndef DPPR_COMMON_ENV_H_
#define DPPR_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace dppr {

/// Reads a double-valued environment variable, returning `fallback` when the
/// variable is unset. A set value must parse as a whole: an empty,
/// non-numeric, out-of-range or trailing-junk value (`abc`, `1.5x`) prints
/// the variable and its value and DPPR_CHECK-fails. The benches use
/// DPPR_BENCH_SCALE to grow/shrink the synthetic datasets.
double GetEnvDouble(const std::string& name, double fallback);

/// Reads a base-10 integer environment variable, returning `fallback` when
/// unset; a set value that does not parse as a whole dies like
/// GetEnvDouble's (DPPR_ADMIN_PORT=18137x must not start the admin plane on
/// port 18137).
int64_t GetEnvInt(const std::string& name, int64_t fallback);

/// Reads a string environment variable, returning `fallback` when unset.
/// The observability layer reads DPPR_TRACE and DPPR_METRICS_DUMP.
std::string GetEnvString(const std::string& name, const std::string& fallback);

}  // namespace dppr

#endif  // DPPR_COMMON_ENV_H_
