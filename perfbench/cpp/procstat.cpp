#include "procstat.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

namespace perfbench {
namespace {

std::vector<std::string> list_dir(const std::string& path) {
  std::vector<std::string> names;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return names;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    names.emplace_back(entry->d_name);
  }
  ::closedir(dir);
  return names;
}

/// Value of a "Key:\tvalue" line in a /proc status file, or 0.
std::uint64_t status_field(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtoull(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

ProcSample sample_process(pid_t pid) {
  ProcSample sample;
  const std::string base = "/proc/" + std::to_string(pid) + "/task/";
  for (const auto& tid : list_dir(base)) {
    std::ifstream schedstat(base + tid + "/schedstat");
    unsigned long long on_cpu_ns = 0;
    if (schedstat >> on_cpu_ns) {
      const double seconds = static_cast<double>(on_cpu_ns) * 1e-9;
      sample.cpu_s += seconds;
      sample.thread_cpu_s[std::atoi(tid.c_str())] = seconds;
    }
    const std::string status = base + tid + "/status";
    sample.ctx_switches += status_field(status, "voluntary_ctxt_switches") +
                           status_field(status, "nonvoluntary_ctxt_switches");
    ++sample.threads;
  }
  return sample;
}

double busiest_thread_util(const ProcSample& earlier, const ProcSample& later,
                           double window_s) {
  double busiest = 0;
  for (const auto& [tid, seconds] : later.thread_cpu_s) {
    const auto before = earlier.thread_cpu_s.find(tid);
    const double start = before == earlier.thread_cpu_s.end() ? 0.0 : before->second;
    busiest = std::max(busiest, seconds - start);
  }
  return busiest / window_s;
}

double peak_rss_mb(pid_t pid) {
  const auto kib =
      status_field("/proc/" + std::to_string(pid) + "/status", "VmHWM");
  return static_cast<double>(kib) / 1024.0;
}

double self_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int self_threads() {
  return static_cast<int>(status_field("/proc/self/status", "Threads"));
}

int self_sockets() {
  // Socket inodes of TCP endpoints in this network namespace.
  std::set<std::string> tcp;
  for (const char* table : {"/proc/self/net/tcp", "/proc/self/net/tcp6"}) {
    std::ifstream in(table);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string field;
      for (int i = 0; i < 10 && fields >> field; ++i) {
      }
      tcp.insert(field);  // column 10: inode
    }
  }
  int sockets = 0;
  for (const auto& fd : list_dir("/proc/self/fd")) {
    char target[64] = {};
    const std::string path = "/proc/self/fd/" + fd;
    const ssize_t n = ::readlink(path.c_str(), target, sizeof target - 1);
    if (n <= 8 || std::strncmp(target, "socket:[", 8) != 0) continue;
    const std::string inode(target + 8, static_cast<std::size_t>(n) - 9);
    if (tcp.count(inode) != 0) ++sockets;
  }
  return sockets;
}

std::vector<int> parse_cpu_list(const std::string& list) {
  std::vector<int> cpus;
  std::stringstream in(list);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (part.empty()) continue;
    const auto dash = part.find('-');
    const int lo = std::atoi(part.substr(0, dash).c_str());
    const int hi =
        dash == std::string::npos ? lo : std::atoi(part.substr(dash + 1).c_str());
    for (int cpu = lo; cpu <= hi; ++cpu) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

std::uint64_t DirGrowth::poll() {
  for (const auto& name : list_dir(dir_)) {
    struct stat st {};
    if (::stat((dir_ + "/" + name).c_str(), &st) != 0) continue;
    auto& largest = files_[name];
    largest = std::max<std::uint64_t>(largest, static_cast<std::uint64_t>(st.st_size));
  }
  std::uint64_t total = 0;
  for (const auto& [name, size] : files_) total += size;
  return total;
}

}  // namespace perfbench
