#include "workload.h"

#include <array>
#include <cinttypes>
#include <cstdio>

#include "common/rng.h"

namespace perfbench {
namespace {

// Swift-like bodies (paper section 5: Swift drives Falkon with wrapper
// scripts around real application binaries): an application path, six
// arguments, four environment variables and a per-job working directory,
// a few hundred bytes in all.
constexpr std::array<const char*, 8> kApps = {
    "mProjectPP", "mDiffFit", "mBackground", "reorient",
    "alignlinear", "reslice", "softmean", "slicer"};
constexpr std::array<const char*, 4> kEnvKeys = {
    "OMP_NUM_THREADS", "PATH", "SWIFT_JOBDIR", "SWIFT_WRAPPER_LOG"};

std::uint64_t mix(std::uint64_t seed, std::uint64_t seq) {
  falkon::Rng rng(seed ^ (seq * 0xd1342543de82ef95ULL));
  return rng.next_u64();
}

template <class... Args>
void format_into(std::string& out, const char* fmt, Args... args) {
  char buffer[160];
  const int n = std::snprintf(buffer, sizeof buffer, fmt, args...);
  out.assign(buffer, n < 0 ? 0 : static_cast<std::size_t>(n));
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"burst_sleep0", Loop::kClosed, Body::kSleep0, false, 64, true, 20000,
       5000, 0.0},
      // A third of the one-CPU host's ceiling for this mix (~110 us of
      // dispatcher CPU per task, so ~9k tasks/s), which leaves room for
      // hypervisor steal without a backlog building.
      {"open_poisson", Loop::kOpen, Body::kSleep0, false, 4, false, 0, 1,
       3000.0},
      {"journaled_swift", Loop::kClosed, Body::kSwift, true, 64, true, 20000,
       5000, 0.0},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& workload : workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

TaskFactory::TaskFactory(const Workload& workload, std::uint64_t seed)
    : body_(workload.body), seed_(seed) {
  // 40-bit seed-derived base: distinct id ranges per seed, dense per run.
  base_ = 1 + (falkon::Rng(seed).next_u64() & ((1ULL << 40) - 1));
}

void TaskFactory::fill(std::uint64_t seq, falkon::TaskSpec& out) const {
  out.id = id_of(seq);
  if (body_ == Body::kSleep0) {
    out.executable = "sleep";
    out.args.resize(1);
    out.args[0] = "0.000000";
    out.working_dir.clear();
    out.env.clear();
    out.capture_output = false;
    return;
  }
  const std::uint64_t r = mix(seed_, seq);
  const char* app = kApps[r % kApps.size()];
  const unsigned run = static_cast<unsigned>((r >> 8) % 10000);
  const unsigned file = static_cast<unsigned>((r >> 24) % 1000000);
  const unsigned threads = static_cast<unsigned>(1 + ((r >> 44) % 8));
  format_into(out.executable, "/usr/local/swift/apps/%s/bin/%s", app, app);
  out.args.resize(6);
  out.args[0] = "-i";
  format_into(out.args[1], "/gpfs/home/swift/data/run%04u/input_%06u.fits",
              run, file);
  out.args[2] = "-o";
  format_into(out.args[3], "/scratch/swift/out/%s_%06u.fits", app, file);
  out.args[4] = "-t";
  format_into(out.args[5], "%016" PRIx64, r);
  format_into(out.working_dir, "/scratch/swift/run-%08" PRIx64 "/job-%" PRIu64,
              seed_ & 0xffffffffULL, seq);
  if (out.env.size() != kEnvKeys.size()) out.env.clear();
  format_into(out.env[kEnvKeys[0]], "%u", threads);
  out.env[kEnvKeys[1]] = "/usr/local/swift/bin:/usr/local/bin:/usr/bin:/bin";
  format_into(out.env[kEnvKeys[2]], "/scratch/swift/jobs/%" PRIu64, seq);
  format_into(out.env[kEnvKeys[3]],
              "/scratch/swift/logs/wrapper-%08" PRIx64 "-%" PRIu64 ".log",
              seed_ & 0xffffffffULL, seq);
  out.capture_output = true;
}

bool TaskFactory::matches(const falkon::TaskSpec& got) const {
  if (got.id.value < base_) return false;
  thread_local falkon::TaskSpec want;
  fill(got.id.value - base_, want);
  return got.executable == want.executable && got.args == want.args &&
         got.working_dir == want.working_dir && got.env == want.env &&
         got.capture_output == want.capture_output;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double horizon_s) {
  std::vector<double> due;
  if (rate_per_s <= 0) return due;
  due.reserve(static_cast<std::size_t>(rate_per_s * horizon_s * 1.1) + 16);
  falkon::Rng rng(seed ^ 0x5bd1e995ULL);
  double t = 0;
  for (;;) {
    t += rng.exponential(1.0 / rate_per_s);
    if (t >= horizon_s) break;
    due.push_back(t);
  }
  return due;
}

}  // namespace perfbench
