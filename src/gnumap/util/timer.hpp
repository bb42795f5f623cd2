// Monotonic wall-clock timing and per-thread CPU-time accounting.
#pragma once

#include <chrono>
#include <ctime>

namespace gnumap {

/// Simple stopwatch around std::chrono::steady_clock.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulating CPU-time timer: sums disjoint intervals of the calling
/// thread's CPU time (CLOCK_THREAD_CPUTIME_ID).  Time spent blocked,
/// sleeping, or descheduled does not count, so readings stay per-thread
/// even with more threads than cores.  Start, stop, and sample it on one
/// thread.  Used by the mpsim cost model to attribute compute time to
/// individual ranks.
class Stopwatch {
 public:
  void start() { started_ = thread_cpu_seconds(); running_ = true; }

  void stop() {
    if (running_) {
      total_ += thread_cpu_seconds() - started_;
      running_ = false;
    }
  }

  /// True while an interval is open (start() without a matching stop()).
  bool running() const { return running_; }

  /// Total accumulated seconds — closed intervals only.  Footgun: while an
  /// interval is open this silently under-reports; readers sampling a live
  /// stopwatch (mpsim cost attribution, progress displays) want
  /// elapsed_including_running().
  double total_seconds() const { return total_; }

  /// Seconds of the currently open interval (0 when stopped).
  double running_seconds() const {
    return running_ ? thread_cpu_seconds() - started_ : 0.0;
  }

  /// Closed intervals plus any open one: safe to sample at any time.
  double elapsed_including_running() const {
    return total_ + running_seconds();
  }

  void add_seconds(double s) { total_ += s; }
  void reset() { total_ = 0.0; running_ = false; }

 private:
  static double thread_cpu_seconds() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double started_ = 0.0;
  double total_ = 0.0;
  bool running_ = false;
};

}  // namespace gnumap
