// perfbench_host: the dispatcher under test, in its own process.
//
//   perfbench_host --cpus LIST [--journal-dir DIR]
//
// Builds the same core::Dispatcher + core::TcpDispatcherServer pair as the
// falkon-dispatcher daemon, with the daemon's default configuration, and
// optionally attaches a group-commit ha::AsyncJournal on DIR (the daemon
// cannot open a journal). Pins itself to LIST before any thread starts,
// prints "ready <rpc-port> <push-port>" on stdout, and serves until stdin
// reaches EOF — the load generator holds the other end, so the host can
// never outlive it.
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "common/clock.h"
#include "core/service_tcp.h"
#include "daemon_config.h"
#include "ha/async_journal.h"
#include "ha/journal.h"
#include "procstat.h"

int main(int argc, char** argv) {
  using namespace falkon;
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);

  std::string cpus;
  std::string journal_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--cpus") {
      cpus = argv[i + 1];
    } else if (arg == "--journal-dir") {
      journal_dir = argv[i + 1];
    } else {
      std::fprintf(stderr, "perfbench_host: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (!cpus.empty() && !perfbench::pin_to(perfbench::parse_cpu_list(cpus))) {
    std::fprintf(stderr, "perfbench_host: cannot pin to cpus %s\n", cpus.c_str());
    return 1;
  }

  std::unique_ptr<ha::AsyncJournal> journal;
  if (!journal_dir.empty()) {
    ha::Journal::Options options;
    options.dir = journal_dir;
    auto opened = ha::Journal::open(options);
    if (!opened.ok()) {
      std::fprintf(stderr, "perfbench_host: journal: %s\n",
                   opened.error().str().c_str());
      return 1;
    }
    journal = std::make_unique<ha::AsyncJournal>(opened.take());
  }

  core::DispatcherConfig config = perfbench::daemon_dispatcher_config();
  config.journal = journal.get();

  RealClock clock;
  core::Dispatcher dispatcher(clock, config);
  // One reactor loop. The benchmark's virtual executors share one RPC and
  // one push connection, and with several loops the server's per-request
  // affinity pinning migrates that connection between loops on nearly every
  // request, which currently severs it.
  core::TcpDispatcherServer server(dispatcher, nullptr, /*reactor_loops=*/1);
  if (auto status = server.start(0, 0); !status.ok()) {
    std::fprintf(stderr, "perfbench_host: start failed: %s\n",
                 status.error().str().c_str());
    return 1;
  }
  std::printf("ready %u %u\n", server.rpc_port(), server.push_port());
  std::fflush(stdout);

  // Same 0.2 s replay cadence as the daemon's main loop.
  for (;;) {
    pollfd in{STDIN_FILENO, POLLIN, 0};
    const int ready = ::poll(&in, 1, 200);
    if (ready > 0) {
      char buffer[64];
      if (::read(STDIN_FILENO, buffer, sizeof buffer) <= 0) break;
    } else if (ready < 0) {
      break;
    }
    (void)dispatcher.check_replays();
  }
  server.stop();
  dispatcher.shutdown();
  return 0;
}
