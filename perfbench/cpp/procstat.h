// Readers for /proc: CPU, context switches, threads and peak RSS of a
// process (the dispatcher host, read from the load generator), plus this
// process's own CPU, threads and TCP connections for the validity guards.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct ProcSample {
  /// On-CPU time of every thread (sum of /proc/<pid>/task/*/schedstat),
  /// nanosecond-resolution user+sys.
  double cpu_s{0.0};
  /// Voluntary + involuntary context switches over every thread.
  std::uint64_t ctx_switches{0};
  int threads{0};
  /// On-CPU seconds per thread id.
  std::map<int, double> thread_cpu_s;
};

/// Largest CPU share any single thread of `later` used since `earlier`.
[[nodiscard]] double busiest_thread_util(const ProcSample& earlier,
                                         const ProcSample& later,
                                         double window_s);

[[nodiscard]] ProcSample sample_process(pid_t pid);

/// Peak resident set (VmHWM) in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid);

/// user+sys CPU seconds of this process (getrusage).
[[nodiscard]] double self_cpu_s();
/// Threads of this process right now.
[[nodiscard]] int self_threads();
/// TCP sockets this process holds right now (inherited stdio included,
/// if it is a TCP socket).
[[nodiscard]] int self_sockets();

/// CPU list syntax "0,1" or "2-3" -> ids.
[[nodiscard]] std::vector<int> parse_cpu_list(const std::string& list);
/// Pin the calling process (all future threads inherit it).
bool pin_to(const std::vector<int>& cpus);

/// Bytes under a directory, tracked across calls: every file's largest size
/// ever observed is kept, so segments compacted away still count as written.
class DirGrowth {
 public:
  explicit DirGrowth(std::string dir) : dir_(std::move(dir)) {}
  /// Rescan; returns the cumulative bytes written so far.
  std::uint64_t poll();

 private:
  std::string dir_;
  std::map<std::string, std::uint64_t> files_;
};

}  // namespace perfbench
