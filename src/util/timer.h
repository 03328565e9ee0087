// Wall-clock timing helpers for the benchmark harnesses and the serving
// layer's latency metrics.

#ifndef FLOS_UTIL_TIMER_H_
#define FLOS_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace flos {

/// Monotonic wall-clock stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Reset, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed time in microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Whole microseconds from `from` to `to`, clamped at 0.
inline uint64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                              std::chrono::steady_clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us > 0 ? static_cast<uint64_t>(us) : 0;
}

}  // namespace flos

#endif  // FLOS_UTIL_TIMER_H_
