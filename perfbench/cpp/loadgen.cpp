// perfbench_loadgen: the load generator and measurement harness.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                     --host-bin PATH --host-cpus LIST --loadgen-cpus LIST
//                     --work-dir DIR [--git-commit REV] [--source-hash H]
//                     [--trace-out FILE]
//
// Pins itself to --loadgen-cpus, spawns perfbench_host (the dispatcher) on
// the disjoint --host-cpus, and drives it over TCP with one streaming
// core::TcpDispatcherClient plus an ExecutorFleet of virtual executors: four
// threads and four connections in all. The set-up (spawn to every executor
// registered and the client subscribed) is repeated and its median reported.
// After a warm-up, one untraced window of S seconds gives the end-to-end and
// counted per-layer metrics; with --trace 1 a second, traced window of S/2
// follows (its spans go to --trace-out), then the zero-worker replay and the
// codec crossings. Every submitted task
// must come back exactly once and successfully, or the run fails.
//
// Output: a details line {"provenance": ...} and, last, the result line
// {"correct", "attempted", "failed", "metrics"} on stdout; a readable
// report on stderr.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "core/service_tcp.h"
#include "fleet.h"
#include "procstat.h"
#include "replay.h"
#include "util.h"
#include "wire/message.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using falkon::core::TcpDispatcherClient;

constexpr int kSetups = 11;
// Long enough for the journaled workload to reach its steady rate.
constexpr double kWarmup_s = 3.0;
constexpr double kSlice_s = 0.5;
constexpr double kDrainTimeout_s = 20.0;
constexpr double kWalPoll_s = 0.05;
constexpr std::size_t kMaxSubmitSamples = 16;
constexpr std::size_t kMaxBatchSamples = 64;
constexpr std::uint32_t kMaxWaitResults = 1u << 16;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string host_bin;
  std::string host_cpus;
  std::string loadgen_cpus;
  std::string work_dir;
  std::string git_commit{"unknown"};
  std::string source_hash{"unknown"};
  /// Where a traced run writes its spans ("" = nowhere).
  std::string trace_out;
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_loadgen: %s\n", message.c_str());
  std::exit(1);
}

// ---- the dispatcher host process ---------------------------------------

class HostProcess {
 public:
  HostProcess() = default;
  ~HostProcess() { stop(); }
  HostProcess(const HostProcess&) = delete;
  HostProcess& operator=(const HostProcess&) = delete;

  falkon::Status spawn(const Options& options, const std::string& journal_dir) {
    int in[2];
    int out[2];
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
      return falkon::make_error(falkon::ErrorCode::kIoError, "pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    std::vector<std::string> args = {options.host_bin, "--cpus", options.host_cpus};
    if (!journal_dir.empty()) {
      args.push_back("--journal-dir");
      args.push_back(journal_dir);
    }
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, options.host_bin.c_str(), &actions,
                                 nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    stdin_fd_ = in[1];
    stdout_fd_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      return falkon::make_error(falkon::ErrorCode::kIoError,
                                "posix_spawn: " + std::string(std::strerror(rc)));
    }
    // "ready <rpc> <push>\n"
    std::string line;
    const double deadline = mono_s() + 30.0;
    while (line.find('\n') == std::string::npos) {
      pollfd fd{stdout_fd_, POLLIN, 0};
      if (mono_s() > deadline || ::poll(&fd, 1, 100) < 0) break;
      char buffer[128];
      if ((fd.revents & (POLLIN | POLLHUP)) == 0) continue;
      const ssize_t n = ::read(stdout_fd_, buffer, sizeof buffer);
      if (n <= 0) break;
      line.append(buffer, static_cast<std::size_t>(n));
    }
    unsigned rpc = 0;
    unsigned push = 0;
    if (std::sscanf(line.c_str(), "ready %u %u", &rpc, &push) != 2) {
      return falkon::make_error(falkon::ErrorCode::kUnavailable,
                                "dispatcher host did not start");
    }
    rpc_port_ = static_cast<std::uint16_t>(rpc);
    push_port_ = static_cast<std::uint16_t>(push);
    return falkon::ok_status();
  }

  /// Close the host's stdin (its shutdown signal) and reap it.
  void stop() {
    if (stdin_fd_ >= 0) ::close(stdin_fd_);
    stdin_fd_ = -1;
    if (pid_ > 0) {
      int status = 0;
      const double deadline = mono_s() + 10.0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (mono_s() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    stdout_fd_ = -1;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::uint16_t rpc_port() const { return rpc_port_; }
  [[nodiscard]] std::uint16_t push_port() const { return push_port_; }

 private:
  pid_t pid_{-1};
  int stdin_fd_{-1};
  int stdout_fd_{-1};
  std::uint16_t rpc_port_{0};
  std::uint16_t push_port_{0};
};

/// One deployment: host process, client instance and executor fleet.
struct Session {
  HostProcess host;
  std::unique_ptr<TcpDispatcherClient> client;
  falkon::InstanceId instance;
  std::unique_ptr<ExecutorFleet> fleet;
  std::string wal_dir;

  void teardown() {
    if (fleet) fleet->stop();
    fleet.reset();
    client.reset();
    host.stop();
    if (!wal_dir.empty()) {
      std::error_code ignored;
      fs::remove_all(wal_dir, ignored);
    }
  }
  ~Session() { teardown(); }
};

/// Spawn the host and connect everything; returns the set-up time.
double setup(Session& session, const Options& options, const Workload& workload,
             const TaskFactory& factory, int attempt) {
  if (workload.journal) {
    session.wal_dir = options.work_dir + "/wal-" + std::to_string(attempt);
    std::error_code ignored;
    fs::remove_all(session.wal_dir, ignored);
  }
  const double start = mono_s();
  if (auto status = session.host.spawn(options, session.wal_dir); !status.ok()) {
    die("host: " + status.error().str());
  }
  auto client = TcpDispatcherClient::connect("127.0.0.1", session.host.rpc_port(),
                                             session.host.push_port());
  if (!client.ok()) die("client connect: " + client.error().str());
  session.client = client.take();
  auto instance = session.client->create_instance(falkon::ClientId{1});
  if (!instance.ok()) die("create_instance: " + instance.error().str());
  session.instance = instance.value();
  if (!session.client->streaming(session.instance)) {
    die("client instance did not enter streaming mode");
  }
  session.fleet = std::make_unique<ExecutorFleet>(workload, factory);
  if (auto status = session.fleet->connect("127.0.0.1", session.host.rpc_port(),
                                           session.host.push_port());
      !status.ok()) {
    die("executors: " + status.error().str());
  }
  return mono_s() - start;
}

// ---- measurement ------------------------------------------------------------

/// State sampled at a window boundary.
struct Snapshot {
  double t{0};
  ProcSample host;
  FleetCounters fleet;
  double loadgen_cpu_s{0};
  std::uint64_t received{0};
  std::uint64_t waits{0};  // wait_results calls that returned results
  std::uint64_t wal_bytes{0};
};

/// A timed event: when it started and how long it took (or how late it was).
struct Timed {
  double t;
  double value;
};

/// Values whose start time falls in [from, to).
std::vector<double> in_window(const std::vector<Timed>& events, double from,
                              double to) {
  std::vector<double> values;
  for (const auto& event : events) {
    if (event.t >= from && event.t < to) values.push_back(event.value);
  }
  return values;
}

struct LiveRun {
  /// Boundaries: warm-up end, the end of each untraced slice[, traced end].
  std::vector<Snapshot> snaps;
  std::size_t slices{0};
  /// By phase: 0 warm-up, 1..slices the untraced slices, then traced.
  std::vector<std::vector<float>> latency_ms;
  std::vector<Timed> submit_us;  // traced window only
  std::vector<Timed> lag_ms;     // open loop only
  std::vector<Timed> own_lag_ms;  // open loop only
  FleetSpans spans;
  CrossingInputs crossings;
  std::uint64_t submitted{0};
  CheckReport check;
  int loadgen_threads{0};
  int loadgen_sockets{0};
  double rss_mb{0};
  std::string failure;
};

/// Open-loop submitter, run on the fleet thread (see ExecutorFleet::Pacer).
struct OpenLoop {
  const TaskFactory* factory{nullptr};
  Session* session{nullptr};
  const std::vector<double>* due{nullptr};
  double t0{0};
  double stop_at{0};
  std::atomic<bool> tracing{false};

  std::mutex mu;  // guards everything below
  std::condition_variable idle;  // a fire() finished
  bool closed{false};
  bool firing{false};
  std::uint64_t next{0};
  std::vector<Timed> submit_us;
  std::vector<Timed> lag_ms;
  std::vector<Timed> own_lag_ms;
  double previous_end{0};
  std::vector<std::vector<std::uint8_t>> samples;
  std::vector<std::uint64_t> refused;
  std::string failure;

  double next_due() {
    std::lock_guard lock(mu);
    if (closed || next >= due->size()) {
      return std::numeric_limits<double>::infinity();
    }
    const double at = t0 + (*due)[next];
    return at >= stop_at ? std::numeric_limits<double>::infinity() : at;
  }

  /// Stop submitting; returns once no submit is in flight, so `next` is
  /// final (a late fire of a task due just before the end would otherwise
  /// land after the drain began counting).
  void close() {
    std::unique_lock lock(mu);
    closed = true;
    idle.wait(lock, [&] { return !firing; });
  }

  void fire() {
    std::uint64_t seq = 0;
    {
      std::lock_guard lock(mu);
      if (closed) return;
      seq = next;
      firing = true;
    }
    std::vector<falkon::TaskSpec> tasks(1);
    factory->fill(seq, tasks[0]);
    std::vector<std::uint8_t> sample;
    if (seq % 64 == 0) {
      falkon::wire::SubmitRequest request;
      request.instance_id = session->instance;
      request.tasks = tasks;
      sample = falkon::wire::encode_message(request);
    }
    const double start = mono_s();
    auto accepted = session->client->submit(session->instance, std::move(tasks));
    const double end = mono_s();
    std::lock_guard lock(mu);
    ++next;
    firing = false;
    idle.notify_all();
    // Total lateness, and the part the generator added itself: time past
    // both the due time and the end of the previous (synchronous) submit.
    const double due_at = t0 + (*due)[seq];
    lag_ms.push_back({start, (start - due_at) * 1e3});
    own_lag_ms.push_back({start, (start - std::max(due_at, previous_end)) * 1e3});
    previous_end = end;
    if (tracing.load(std::memory_order_relaxed)) {
      submit_us.push_back({start, (end - start) * 1e6});
    }
    if (!sample.empty() && samples.size() < kMaxSubmitSamples) {
      samples.push_back(std::move(sample));
    }
    if (!accepted.ok() || accepted.value() != 1) {
      refused.push_back(seq);
      if (!accepted.ok() && failure.empty()) failure = accepted.error().str();
    }
  }
};

LiveRun run_live(Session& session, const Options& options, const Workload& workload,
                 const TaskFactory& factory) {
  LiveRun run;
  ExactlyOnceChecker checker(factory.base());
  std::unique_ptr<DirGrowth> wal;
  if (!session.wal_dir.empty()) wal = std::make_unique<DirGrowth>(session.wal_dir);

  // The untraced window is cut into ~0.5 s slices; end-to-end metrics are
  // medians over slices, so one hypervisor or scheduler stall moves one
  // slice, not the run.
  const double t0 = mono_s();
  run.slices = static_cast<std::size_t>(
      std::max(1.0, std::round(options.seconds / kSlice_s)));
  std::vector<double> boundaries = {t0 + kWarmup_s};
  for (std::size_t k = 1; k <= run.slices; ++k) {
    boundaries.push_back(t0 + kWarmup_s +
                         options.seconds * static_cast<double>(k) /
                             static_cast<double>(run.slices));
  }
  const std::size_t traced_phase = run.slices + 1;
  if (options.trace) {
    boundaries.push_back(boundaries.back() + std::max(1.0, options.seconds / 2));
  }
  const double submit_end = boundaries.back();
  run.latency_ms.resize(boundaries.size() + 1);

  std::uint64_t received = 0;
  std::uint64_t waits = 0;
  std::uint64_t wal_bytes = 0;
  double next_wal_poll = t0;
  std::size_t phase = 0;
  bool tracing = false;

  auto snapshot = [&] {
    Snapshot snap;
    snap.t = mono_s();
    snap.host = sample_process(session.host.pid());
    snap.fleet = session.fleet->counters();
    snap.loadgen_cpu_s = self_cpu_s();
    snap.received = received;
    snap.waits = waits;
    if (wal) wal_bytes = wal->poll();
    snap.wal_bytes = wal_bytes;
    return snap;
  };

  // Closed loop: submit times per bundle. Open loop: the Poisson schedule.
  const bool closed = workload.loop == Loop::kClosed;
  std::vector<double> bundle_t;
  std::vector<double> due;
  OpenLoop open;
  ExecutorFleet::Pacer pacer;
  if (!closed) {
    due = poisson_schedule(options.seed, workload.rate_per_s, submit_end - t0 + 1.0);
    open.factory = &factory;
    open.session = &session;
    open.due = &due;
    open.t0 = t0;
    open.stop_at = submit_end;
    pacer.next_due = [&open] { return open.next_due(); };
    pacer.fire = [&open] { open.fire(); };
  }
  session.fleet->start(std::move(pacer));

  auto origin_s = [&](std::uint64_t seq) {
    return closed ? bundle_t[seq / workload.bundle] : t0 + due[seq];
  };
  // Tasks submitted, and tasks whose submit was refused (nothing comes back).
  std::uint64_t refused = 0;
  auto submitted_now = [&]() -> std::pair<std::uint64_t, std::uint64_t> {
    if (closed) return {run.submitted, refused};
    std::lock_guard lock(open.mu);
    return {open.next, open.refused.size()};
  };

  for (;;) {
    const double now = mono_s();
    if (wal && now >= next_wal_poll) {
      wal_bytes = wal->poll();
      next_wal_poll = now + kWalPoll_s;
    }
    while (phase < boundaries.size() && now >= boundaries[phase]) {
      run.snaps.push_back(snapshot());
      ++phase;
      if (phase == 1) session.fleet->set_sampling(true);
      if (phase == traced_phase) {
        run.loadgen_threads = self_threads();
        run.loadgen_sockets = self_sockets();
        session.fleet->set_sampling(false);
      }
      tracing = options.trace && phase == traced_phase;
      session.fleet->set_tracing(tracing);
      open.tracing.store(tracing);
    }
    const bool submitting = phase < boundaries.size();
    // Open loop: stop the pacer before counting what must come back.
    if (!closed && !submitting) open.close();
    const auto [submitted, lost] = submitted_now();
    if (!submitting && received + lost >= submitted) break;
    if (!submitting && now > submit_end + kDrainTimeout_s) {
      run.failure = "drain timed out: " +
                    std::to_string(submitted - lost - received) +
                    " results missing";
      break;
    }
    if (auto failure = session.fleet->failure(); !failure.empty()) {
      run.failure = "executor fleet: " + failure;
      break;
    }

    while (closed && submitting &&
           run.submitted - refused - received + workload.bundle <= workload.window) {
      std::vector<falkon::TaskSpec> tasks(workload.bundle);
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        factory.fill(run.submitted + i, tasks[i]);
      }
      if (phase == 1 && run.crossings.submits.size() < kMaxSubmitSamples) {
        falkon::wire::SubmitRequest request;
        request.instance_id = session.instance;
        request.tasks = tasks;
        run.crossings.submits.push_back(falkon::wire::encode_message(request));
      }
      const double start = mono_s();
      bundle_t.push_back(start);
      auto accepted = session.client->submit(session.instance, std::move(tasks));
      if (tracing) run.submit_us.push_back({start, (mono_s() - start) * 1e6});
      if (!accepted.ok() || accepted.value() != workload.bundle) {
        checker.on_refused(run.submitted, workload.bundle);
        refused += workload.bundle;
        if (!accepted.ok() && run.failure.empty()) {
          run.failure = "submit: " + accepted.error().str();
        }
      }
      run.submitted += workload.bundle;
    }

    if (!closed && submitting && received + lost >= submitted &&
        open.next_due() == std::numeric_limits<double>::infinity()) {
      // Open loop, schedule exhausted and nothing in flight: a wait would
      // time out into the client's one-shot poll, which re-streams the
      // dispatcher's un-acked mailbox. Sleep to the boundary instead.
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(boundaries[phase]))));
      continue;
    }
    auto results = session.client->wait_results(session.instance, kMaxWaitResults,
                                                submitting ? 1.0 : 0.2);
    if (!results.ok()) {
      run.failure = "wait_results: " + results.error().str();
      break;
    }
    const double at = mono_s();
    if (results.value().empty()) continue;
    ++waits;
    // Open loop: a result can overtake its own submit reply, so bound the
    // sequence by the schedule rather than by the submits counted so far.
    const std::uint64_t known = closed ? run.submitted : due.size();
    auto& latencies = run.latency_ms[phase];
    for (const auto& result : results.value()) {
      checker.on_result(result);
      const std::uint64_t seq = result.task_id.value - factory.base();
      if (result.task_id.value >= factory.base() && seq < known) {
        latencies.push_back(static_cast<float>((at - origin_s(seq)) * 1e3));
      }
      ++received;
    }
    // Result batches for the ResultStream crossing, cut at the dispatcher's
    // 4096-result frame cap.
    auto& batches = run.crossings.result_batches;
    const auto& got = results.value();
    for (std::size_t from = 0; phase >= 1 && batches.size() < kMaxBatchSamples &&
                               from < got.size();
         from += 4096) {
      const std::size_t to = std::min(from + 4096, got.size());
      batches.emplace_back(got.begin() + static_cast<std::ptrdiff_t>(from),
                           got.begin() + static_cast<std::ptrdiff_t>(to));
    }
  }
  session.fleet->stop();

  if (!closed) {
    std::lock_guard lock(open.mu);
    run.submitted = open.next;
    run.submit_us = std::move(open.submit_us);
    run.lag_ms = std::move(open.lag_ms);
    run.own_lag_ms = std::move(open.own_lag_ms);
    run.crossings.submits = std::move(open.samples);
    for (std::uint64_t seq : open.refused) checker.on_refused(seq, 1);
    if (run.failure.empty() && !open.failure.empty()) {
      run.failure = "submit: " + open.failure;
    }
  }
  run.spans = session.fleet->take_spans();
  FrameSamples frames = session.fleet->take_samples();
  run.crossings.task_bundles = std::move(frames.task_bundles);
  run.crossings.result_bundles = std::move(frames.result_bundles);
  run.check = checker.finish(run.submitted);
  const FleetCounters totals = session.fleet->counters();
  run.check.failed += totals.bad_bodies;  // a corrupted body is a failed task
  // The client drops repeated ids before wait_results returns them, so a
  // dispatcher duplicate shows only where the executors ran it twice.
  run.check.duplicated += session.fleet->executed(run.submitted).duplicated;
  if (totals.errors != 0 && run.failure.empty()) {
    run.failure = std::to_string(totals.errors) + " executor protocol errors";
  }
  run.rss_mb = peak_rss_mb(session.host.pid());
  return run;
}

// ---- reporting ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

std::string cpu_list_json(const std::vector<int>& cpus) {
  std::string out = "[";
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(cpus[i]);
  }
  return out + "]";
}

/// Span durations of the traced window, by span name, as one JSON file.
void write_spans(const std::string& path, const Workload& workload,
                 std::uint64_t seed,
                 const std::vector<std::pair<std::string, std::vector<double>>>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench_loadgen: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\"workload\": %s, \"seed\": %" PRIu64 ", \"spans\": {",
               json_string(workload.name).c_str(), seed);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(out, "%s%s: %s", i ? ", " : "", json_string(spans[i].first).c_str(),
                 json_array(spans[i].second).c_str());
  }
  std::fprintf(out, "}}\n");
  std::fclose(out);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) die("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::atof(value.c_str());
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--host-bin") options.host_bin = value;
    else if (arg == "--host-cpus") options.host_cpus = value;
    else if (arg == "--loadgen-cpus") options.loadgen_cpus = value;
    else if (arg == "--work-dir") options.work_dir = value;
    else if (arg == "--git-commit") options.git_commit = value;
    else if (arg == "--source-hash") options.source_hash = value;
    else if (arg == "--trace-out") options.trace_out = value;
    else die("unknown argument " + arg);
  }
  if (options.host_bin.empty() || options.work_dir.empty() ||
      options.seconds <= 0) {
    die("--host-bin, --work-dir and a positive --seconds are required");
  }
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (build_type != "Release" || asserts_on) {
    die("refusing to measure a '" + build_type +
        "' build: configure with -DCMAKE_BUILD_TYPE=Release");
  }
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) die("unknown workload '" + options.workload + "'");
  const std::vector<int> host_cpus = parse_cpu_list(options.host_cpus);
  const std::vector<int> loadgen_cpus = parse_cpu_list(options.loadgen_cpus);
  if (!pin_to(loadgen_cpus)) die("cannot pin to cpus " + options.loadgen_cpus);
  ::signal(SIGPIPE, SIG_IGN);
  std::error_code ignored;
  fs::create_directories(options.work_dir, ignored);
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());

  const TaskFactory factory(*workload, options.seed);
  Session session;
  std::vector<double> setups;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    if (attempt > 0) session.teardown();
    setups.push_back(setup(session, options, *workload, factory, attempt));
  }
  LiveRun run = run_live(session, options, *workload, factory);
  session.teardown();
  if (run.snaps.size() < run.slices + (options.trace ? 2u : 1u)) {
    die("run ended before its windows closed: " + run.failure);
  }

  // Validity guards.
  if (run.loadgen_threads > nproc || run.loadgen_sockets > nproc) {
    die("load generator exceeded nproc=" + std::to_string(nproc) + ": " +
        std::to_string(run.loadgen_threads) + " threads, " +
        std::to_string(run.loadgen_sockets) + " connections");
  }
  const Snapshot& a0 = run.snaps.at(0);
  const Snapshot& a1 = run.snaps.at(run.slices);
  const double window_s = a1.t - a0.t;
  const double tasks_a = static_cast<double>(a1.received - a0.received);
  const FleetCounters fleet_a = a1.fleet - a0.fleet;
  // Per-slice values; the end-to-end metrics are their medians.
  std::vector<double> slice_tasks_per_s;
  std::vector<double> slice_p50;
  std::vector<double> slice_p90;
  std::vector<double> slice_cpu_us;
  std::vector<double> latency;
  for (std::size_t k = 1; k <= run.slices; ++k) {
    const Snapshot& s0 = run.snaps[k - 1];
    const Snapshot& s1 = run.snaps[k];
    const double tasks = static_cast<double>(s1.received - s0.received);
    std::vector<double> slice(run.latency_ms[k].begin(), run.latency_ms[k].end());
    latency.insert(latency.end(), slice.begin(), slice.end());
    if (tasks == 0 || slice.empty()) continue;
    slice_tasks_per_s.push_back(tasks / (s1.t - s0.t));
    slice_cpu_us.push_back((s1.host.cpu_s - s0.host.cpu_s) * 1e6 / tasks);
    slice_p50.push_back(quantile(slice, 0.50));
    slice_p90.push_back(quantile(slice, 0.90));
  }
  if (slice_tasks_per_s.empty()) die("no task completed in the measured window");
  const std::size_t latency_samples = latency.size();
  const double window_p50 = quantile(latency, 0.50);
  const double window_p99 = quantile(latency, 0.99);
  const double p50 = median(slice_p50);
  std::vector<double> lag = in_window(run.lag_ms, a0.t, a1.t);
  const double lag_p99 = lag.empty() ? 0.0 : quantile(lag, 0.99);
  std::vector<double> own_lag = in_window(run.own_lag_ms, a0.t, a1.t);
  const double own_lag_p99 = own_lag.empty() ? 0.0 : quantile(own_lag, 0.99);
  const double tasks_per_s = tasks_a / window_s;
  const double host_cpu_s = a1.host.cpu_s - a0.host.cpu_s;
  const double dispatcher_cpu_us = host_cpu_s * 1e6 / tasks_a;
  const double dispatcher_util =
      host_cpu_s / (window_s * static_cast<double>(host_cpus.size()));
  const double loadgen_util = (a1.loadgen_cpu_s - a0.loadgen_cpu_s) /
                              (window_s * static_cast<double>(loadgen_cpus.size()));
  const double error_rate =
      run.submitted == 0 ? 1.0
                         : static_cast<double>(run.check.errors()) /
                               static_cast<double>(run.submitted);
  std::vector<std::string> invalid;
  if (loadgen_util >= 0.9) {
    invalid.push_back("load generator cores saturated (loadgen.cpu_util=" +
                      json_number(loadgen_util) + ")");
  }
  // Lateness behind a slow submit is the dispatcher's and is already in the
  // latency (timed from the due time); only the generator's own share can
  // make a run invalid.
  if (workload->loop == Loop::kOpen && own_lag_p99 >= 0.5 * p50) {
    invalid.push_back("generator's own lag p99 " + json_number(own_lag_p99) +
                      " ms is on the order of latency p50 " + json_number(p50) +
                      " ms");
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"tasks_per_s", median(slice_tasks_per_s), "1/s"},
        {"task_latency_p50_ms", p50, "ms"},
        {"task_latency_p90_ms", median(slice_p90), "ms"},
        {"dispatcher_cpu_us_per_task", median(slice_cpu_us), "us"},
        {"dispatcher_rss_mb", run.rss_mb, "MiB"},
        {"setup_s", median(setups), "s"},
    };
  } else {
    const Snapshot& b0 = run.snaps.at(run.slices);
    const Snapshot& b1 = run.snaps.at(run.slices + 1);
    const double traced_tasks_per_s =
        static_cast<double>(b1.received - b0.received) / (b1.t - b0.t);
    auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };
    std::vector<double> submit_us = in_window(run.submit_us, b0.t, b1.t);
    auto pct = [](std::vector<double> v, double q) {
      return v.empty() ? 0.0 : quantile(v, q);
    };

    // Zero-worker replay (and, on the journaled workload, again with the
    // journal attached) plus codec crossings, after the live host is gone.
    const std::uint64_t replay_tasks =
        workload->loop == Loop::kClosed ? 200000 : 10000;
    const ReplayCost replay = replay_dispatcher(*workload, factory, replay_tasks, "");
    if (replay.tasks == 0) die("zero-worker replay failed");
    double journal_us = 0.0;
    if (workload->journal) {
      const std::string dir = options.work_dir + "/wal-replay";
      fs::remove_all(dir, ignored);
      const ReplayCost journaled = replay_dispatcher(*workload, factory, replay_tasks, dir);
      fs::remove_all(dir, ignored);
      if (journaled.tasks == 0) die("journaled replay failed");
      journal_us = journaled.cycle_us() - replay.cycle_us();
    }
    const CrossingCost crossing = time_crossings(run.crossings, 0.2);
    const double crossings_us =
        (crossing.submit_decode_ns + crossing.task_bundle_encode_ns +
         crossing.result_bundle_decode_ns + crossing.result_stream_encode_ns) /
        1e3;
    if (!options.trace_out.empty()) {
      write_spans(options.trace_out, *workload, options.seed,
                  {{"core.client.submit_us", submit_us},
                   {"core.executor.get_work_rtt_us", run.spans.get_work_rtt_us},
                   {"core.executor.deliver_rtt_us", run.spans.deliver_rtt_us},
                   {"net.heartbeat_rtt_us", run.spans.heartbeat_rtt_us}});
    }
    const double bundles = static_cast<double>(fleet_a.bundles);
    metrics = {
        {"dispatcher.cpu_util", dispatcher_util, "fraction"},
        {"dispatcher.busiest_thread_util",
         busiest_thread_util(a0.host, a1.host, window_s), "fraction"},
        {"dispatcher.threads", static_cast<double>(a1.host.threads), "count"},
        {"dispatcher.ctx_switches_per_task",
         per(static_cast<double>(a1.host.ctx_switches - a0.host.ctx_switches), tasks_a),
         "1/task"},
        {"core.executor.tasks_per_bundle",
         per(static_cast<double>(fleet_a.tasks), bundles), "tasks"},
        {"core.executor.rpcs_per_task",
         per(static_cast<double>(fleet_a.rpcs), static_cast<double>(fleet_a.tasks)),
         "1/task"},
        {"core.executor.notifies_per_task",
         per(static_cast<double>(fleet_a.notifies), static_cast<double>(fleet_a.tasks)),
         "1/task"},
        {"core.executor.empty_get_work_fraction",
         per(static_cast<double>(fleet_a.empty_get_work),
             static_cast<double>(fleet_a.get_work)),
         "fraction"},
        {"wire.task_bytes_per_task",
         per(static_cast<double>(fleet_a.task_bytes), static_cast<double>(fleet_a.tasks)),
         "B"},
        {"wire.result_bytes_per_task",
         per(static_cast<double>(fleet_a.result_bytes), static_cast<double>(fleet_a.tasks)),
         "B"},
        {"core.client.results_per_wait",
         per(tasks_a, static_cast<double>(a1.waits - a0.waits)), "tasks"},
        {"ha.wal_bytes_per_task",
         per(static_cast<double>(a1.wal_bytes - a0.wal_bytes), tasks_a), "B"},
        {"loadgen.cpu_util", loadgen_util, "fraction"},
        {"loadgen.lag_p99_ms", lag_p99, "ms"},
        {"loadgen.own_lag_p99_ms", own_lag_p99, "ms"},
        {"error_rate", error_rate, "fraction"},
        {"e2e.task_latency_p99_ms", window_p99, "ms"},
        {"e2e.latency_samples", static_cast<double>(latency_samples), "count"},
        {"core.client.submit_us_p50", pct(submit_us, 0.50), "us"},
        {"core.client.submit_us_p99", pct(submit_us, 0.99), "us"},
        {"core.executor.get_work_rtt_us_p50", pct(run.spans.get_work_rtt_us, 0.50), "us"},
        {"core.executor.get_work_rtt_us_p99", pct(run.spans.get_work_rtt_us, 0.99), "us"},
        {"core.executor.deliver_rtt_us_p50", pct(run.spans.deliver_rtt_us, 0.50), "us"},
        {"core.executor.deliver_rtt_us_p99", pct(run.spans.deliver_rtt_us, 0.99), "us"},
        {"net.heartbeat_rtt_us_p50", pct(run.spans.heartbeat_rtt_us, 0.50), "us"},
        {"net.heartbeat_rtt_us_p99", pct(run.spans.heartbeat_rtt_us, 0.99), "us"},
        {"wire.submit.decode_ns_per_task", crossing.submit_decode_ns, "ns"},
        {"wire.task_bundle.encode_ns_per_task", crossing.task_bundle_encode_ns, "ns"},
        {"wire.result_bundle.decode_ns_per_task", crossing.result_bundle_decode_ns, "ns"},
        {"wire.result_stream.encode_ns_per_task", crossing.result_stream_encode_ns, "ns"},
        {"core.dispatcher.submit_us_per_task", replay.submit_us, "us"},
        {"core.dispatcher.get_work_us_per_task", replay.get_work_us, "us"},
        {"core.dispatcher.deliver_us_per_task", replay.deliver_us, "us"},
        {"core.dispatcher.egress_us_per_task", replay.egress_us, "us"},
        {"core.dispatcher.cycle_us_per_task", replay.cycle_us(), "us"},
        {"ha.journal_us_per_task", journal_us, "us"},
        {"budget.dispatcher_cpu_us_per_task", dispatcher_cpu_us, "us"},
        {"budget.residual_us_per_task",
         dispatcher_cpu_us - (replay.cycle_us() + crossings_us + journal_us), "us"},
        {"trace.overhead_fraction", 1.0 - traced_tasks_per_s / tasks_per_s, "fraction"},
    };
  }

  // Provenance and details (one JSON line), then the readable report.
  std::ostringstream details;
  details << "{\"provenance\": {"
          << "\"workload\": " << json_string(workload->name)
          << ", \"seed\": " << options.seed
          << ", \"seconds\": " << json_number(options.seconds)
          << ", \"trace\": " << (options.trace ? 1 : 0)
          << ", \"nproc\": " << nproc
          << ", \"host_cpus\": " << cpu_list_json(host_cpus)
          << ", \"loadgen_cpus\": " << cpu_list_json(loadgen_cpus)
          << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
          << ", \"build_type\": " << json_string(build_type)
          << ", \"git_commit\": " << json_string(options.git_commit)
          << ", \"source_hash\": " << json_string(options.source_hash)
          << ", \"loadgen_threads\": " << run.loadgen_threads
          << ", \"loadgen_connections\": " << run.loadgen_sockets
          << ", \"loadgen_rss_mb\": " << json_number(peak_rss_mb(::getpid()))
          << ", \"window_s\": " << json_number(window_s)
          << ", \"slices\": " << run.slices
          << ", \"latency_samples\": " << latency_samples
          << ", \"window_tasks_per_s\": " << json_number(tasks_per_s)
          << ", \"window_latency_p50_ms\": " << json_number(window_p50)
          << ", \"window_latency_p99_ms\": " << json_number(window_p99)
          << ", \"window_dispatcher_cpu_us_per_task\": " << json_number(dispatcher_cpu_us)
          << ", \"lag_samples\": " << lag.size()
          << ", \"setup_s_samples\": " << json_array(setups)
          << ", \"slice_tasks_per_s\": " << json_array(slice_tasks_per_s)
          << ", \"slice_latency_p90_ms\": " << json_array(slice_p90)
          << ", \"error_rate\": " << json_number(error_rate)
          << ", \"check\": " << json_string(run.check.describe())
          << ", \"valid\": " << (invalid.empty() ? "true" : "false")
          << ", \"invalid_reasons\": [";
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    details << (i ? ", " : "") << json_string(invalid[i]);
  }
  details << "]}}";
  std::printf("%s\n", details.str().c_str());

  std::fprintf(stderr, "perfbench %s seed=%" PRIu64 " trace=%d: %s\n",
               workload->name, options.seed, options.trace ? 1 : 0,
               run.check.describe().c_str());
  for (const auto& metric : metrics) {
    std::fprintf(stderr, "  %-42s %14.4f %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  for (const auto& reason : invalid) {
    std::fprintf(stderr, "  INVALID RUN: %s\n", reason.c_str());
  }

  const bool correct = run.failure.empty() && run.check.passed();
  if (!correct) {
    std::fprintf(stderr, "perfbench_loadgen: CHECK FAILED: %s %s\n",
                 run.failure.c_str(), run.check.describe().c_str());
  }
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << run.submitted
         << ", \"failed\": " << run.check.errors() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
           << json_number(metrics[i].value) << ", \"unit\": "
           << json_string(metrics[i].unit) << "}";
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
