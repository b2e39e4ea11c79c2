#ifndef DPPR_COMMON_TIMER_H_
#define DPPR_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

#include <time.h>

namespace dppr {

/// Monotonic wall-clock timer with millisecond/second helpers.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Restart(), in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU-time timer (CLOCK_THREAD_CPUTIME_ID). Unlike WallTimer it
/// does not charge time the thread spent descheduled, so simulated machines
/// contending for physical cores — e.g. many concurrent query rounds — don't
/// inflate each other's measured compute.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { Restart(); }

  void Restart() { start_ = Now(); }

  /// CPU seconds this thread consumed since construction or last Restart().
  double ElapsedSeconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double start_;
};

}  // namespace dppr

#endif  // DPPR_COMMON_TIMER_H_
