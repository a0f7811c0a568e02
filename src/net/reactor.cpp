#include "net/reactor.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <utility>

#include "net/socket.h"

namespace falkon::net {

namespace {

constexpr int kMaxEvents = 64;
constexpr int kMaxIov = 64;
// Bytes decoded per connection per readiness event before yielding, so one
// fire-hosing peer cannot starve the other connections on the loop.
constexpr std::size_t kReadBudget = 256 * 1024;
// epoll_wait timeout when no timer is pending.
constexpr int kIdleTimeoutMs = 100;
constexpr double kAcceptBackoffMinS = 0.05;
constexpr double kAcceptBackoffMaxS = 1.0;
// Minimum spacing between shrink-on-idle pool trims.
constexpr double kPoolTrimIntervalS = 1.0;

}  // namespace

/// Size-classed free lists of byte buffers. The loop thread is the
/// dominant caller (decode buffers, write completions, close-time recycle)
/// but producers acquire send chunks and handlers may recycle decoded
/// payloads from pool threads, so the pool keeps its own leaf mutex —
/// never held while any other lock is taken.
struct Reactor::BufferPool {
  static constexpr std::size_t kNClasses = 7;
  static constexpr std::size_t kClassBytes[kNClasses] = {
      256, 1u << 10, 4u << 10, 16u << 10, 64u << 10, 256u << 10, 1u << 20};
  /// Per-class retention cap: bounds worst-case pooled memory at
  /// sum(class_bytes) * kMaxPerClass (~43 MB) though trim-on-idle keeps the
  /// steady state far below it.
  static constexpr std::size_t kMaxPerClass = 64;

  std::mutex mu;
  std::array<std::vector<std::vector<std::uint8_t>>, kNClasses> free_lists;

  /// Smallest class that fits `n` bytes, or -1 when larger than every class
  /// (then the allocation is unpooled).
  static int class_for_size(std::size_t n) {
    for (std::size_t c = 0; c < kNClasses; ++c) {
      if (n <= kClassBytes[c]) return static_cast<int>(c);
    }
    return -1;
  }

  /// Largest class whose buffers fit inside `capacity`, or -1 for tiny
  /// one-off vectors not worth keeping.
  static int class_for_capacity(std::size_t capacity) {
    int best = -1;
    for (std::size_t c = 0; c < kNClasses; ++c) {
      if (kClassBytes[c] <= capacity) best = static_cast<int>(c);
    }
    return best;
  }

  std::vector<std::uint8_t> acquire(Reactor& reactor, std::size_t n) {
    const int cls = class_for_size(n);
    if (cls >= 0) {
      std::unique_lock<std::mutex> lock(mu);
      auto& list = free_lists[static_cast<std::size_t>(cls)];
      if (!list.empty()) {
        std::vector<std::uint8_t> buf = std::move(list.back());
        list.pop_back();
        lock.unlock();
        reactor.pool_bytes_.fetch_sub(
            static_cast<std::int64_t>(buf.capacity()),
            std::memory_order_relaxed);
        if (reactor.m_pool_hits_ != nullptr) reactor.m_pool_hits_->inc();
        if (reactor.m_pool_bytes_ != nullptr) {
          reactor.m_pool_bytes_->set(static_cast<double>(
              reactor.pool_bytes_.load(std::memory_order_relaxed)));
        }
        buf.resize(n);  // capacity >= class size >= n: no reallocation
        return buf;
      }
    }
    if (reactor.m_pool_misses_ != nullptr) reactor.m_pool_misses_->inc();
    std::vector<std::uint8_t> buf;
    if (cls >= 0) buf.reserve(kClassBytes[static_cast<std::size_t>(cls)]);
    buf.resize(n);
    return buf;
  }

  void release(Reactor& reactor, std::vector<std::uint8_t>&& buf) {
    const std::size_t capacity = buf.capacity();
    const int cls = class_for_capacity(capacity);
    // Oversized one-offs (beyond 2x the largest class) are returned to the
    // allocator rather than pinned in the pool forever.
    if (cls < 0 || capacity > 2 * kClassBytes[kNClasses - 1]) return;
    buf.clear();
    {
      std::lock_guard<std::mutex> lock(mu);
      auto& list = free_lists[static_cast<std::size_t>(cls)];
      if (list.size() >= kMaxPerClass) return;
      list.push_back(std::move(buf));
    }
    reactor.pool_bytes_.fetch_add(static_cast<std::int64_t>(capacity),
                                  std::memory_order_relaxed);
    if (reactor.m_pool_bytes_ != nullptr) {
      reactor.m_pool_bytes_->set(static_cast<double>(
          reactor.pool_bytes_.load(std::memory_order_relaxed)));
    }
  }

  /// Shrink-on-idle: drop half of every free list (called from the loop
  /// when epoll has been idle), so a burst's buffers drain back to the
  /// allocator instead of sitting hot forever.
  void trim(Reactor& reactor) {
    std::int64_t freed = 0;
    bool any = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (auto& list : free_lists) {
        const std::size_t keep = list.size() / 2;
        while (list.size() > keep) {
          freed += static_cast<std::int64_t>(list.back().capacity());
          list.pop_back();
          any = true;
        }
      }
    }
    if (!any) return;
    reactor.pool_bytes_.fetch_sub(freed, std::memory_order_relaxed);
    if (reactor.m_pool_trims_ != nullptr) reactor.m_pool_trims_->inc();
    if (reactor.m_pool_bytes_ != nullptr) {
      reactor.m_pool_bytes_->set(static_cast<double>(
          reactor.pool_bytes_.load(std::memory_order_relaxed)));
    }
  }
};

constexpr std::size_t Reactor::BufferPool::kClassBytes[];

/// Hashed timer wheel: 1 ms ticks over 512 slots; entries keep an absolute
/// deadline tick so multi-rotation timers just stay in their slot until the
/// cursor passes them with the right deadline. Loop-thread-only.
struct Reactor::TimerWheel {
  static constexpr std::size_t kSlots = 512;
  static constexpr double kTickS = 0.001;

  struct Timer {
    TimerId id{0};
    std::uint64_t deadline_tick{0};
    double period_s{0.0};  // > 0: periodic
    TimerFn fn;
  };

  std::array<std::vector<Timer>, kSlots> slots;
  std::size_t n_timers{0};
  std::uint64_t cursor_tick{0};
  std::chrono::steady_clock::time_point t0{std::chrono::steady_clock::now()};

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }
  [[nodiscard]] std::uint64_t now_tick() const {
    return static_cast<std::uint64_t>(now_s() / kTickS);
  }

  /// Schedule `fn` ~delay_s from now (period_s > 0 repeats it).
  void insert(TimerId id, double delay_s, double period_s, TimerFn fn) {
    Timer timer;
    timer.id = id;
    timer.period_s = period_s;
    timer.fn = std::move(fn);
    auto ticks = static_cast<std::uint64_t>(delay_s / kTickS);
    timer.deadline_tick = now_tick() + std::max<std::uint64_t>(1, ticks);
    insert_timer(std::move(timer));
  }

  void insert_timer(Timer timer) {
    slots[timer.deadline_tick % kSlots].push_back(std::move(timer));
    ++n_timers;
  }

  void remove(TimerId id) {
    for (auto& slot : slots) {
      for (std::size_t i = 0; i < slot.size(); ++i) {
        if (slot[i].id == id) {
          slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(i));
          --n_timers;
          return;
        }
      }
    }
  }

  void clear() {
    for (auto& slot : slots) slot.clear();
    n_timers = 0;
  }

  /// Fire every timer whose deadline has passed. Periodic timers re-insert
  /// themselves; fns run after extraction so they may add or cancel timers.
  void advance() {
    if (n_timers == 0) {
      cursor_tick = now_tick();
      return;
    }
    const std::uint64_t target = now_tick();
    std::vector<Timer> due;
    while (cursor_tick < target) {
      ++cursor_tick;
      auto& slot = slots[cursor_tick % kSlots];
      for (std::size_t i = 0; i < slot.size();) {
        if (slot[i].deadline_tick <= cursor_tick) {
          due.push_back(std::move(slot[i]));
          slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(i));
          --n_timers;
        } else {
          ++i;
        }
      }
    }
    for (auto& timer : due) {
      if (timer.period_s > 0.0) {
        Timer next = timer;
        auto period_ticks = static_cast<std::uint64_t>(timer.period_s / kTickS);
        next.deadline_tick = cursor_tick + std::max<std::uint64_t>(1, period_ticks);
        insert_timer(std::move(next));
      }
      timer.fn();
    }
  }

  /// Milliseconds until the nearest deadline (timer population is small —
  /// a handful of sweep/backoff/pause entries — so a full scan is cheap).
  [[nodiscard]] int next_timeout_ms() const {
    if (n_timers == 0) return kIdleTimeoutMs;
    std::uint64_t nearest = UINT64_MAX;
    for (const auto& slot : slots) {
      for (const auto& timer : slot) {
        nearest = std::min(nearest, timer.deadline_tick);
      }
    }
    const std::uint64_t now = now_tick();
    if (nearest <= now) return 0;
    const std::uint64_t delta = nearest - now;
    return static_cast<int>(std::min<std::uint64_t>(delta, kIdleTimeoutMs));
  }
};

Reactor::Reactor(ReactorOptions options)
    : options_(options),
      timers_(std::make_unique<TimerWheel>()),
      pool_(std::make_unique<BufferPool>()) {
  if (options_.low_watermark_bytes > options_.high_watermark_bytes) {
    options_.low_watermark_bytes = options_.high_watermark_bytes / 2;
  }
  if (options_.obs != nullptr) {
    auto& reg = options_.obs->registry();
    m_wakeups_ = &reg.counter("falkon.net.reactor.wakeups");
    m_accept_rejected_ = &reg.counter("falkon.net.accept_rejected");
    m_read_paused_ = &reg.counter("falkon.net.reactor.read_paused");
    m_coalesced_ = &reg.counter("falkon.net.frames_coalesced");
    m_pool_hits_ = &reg.counter("falkon.net.pool.hits");
    m_pool_misses_ = &reg.counter("falkon.net.pool.misses");
    m_pool_trims_ = &reg.counter("falkon.net.pool.trims");
    m_pool_bytes_ = &reg.gauge("falkon.net.pool.bytes");
    m_epoll_batch_ =
        &reg.histogram("falkon.net.reactor.epoll_batch", 1.0, 64.0);
    m_writable_stall_ =
        &reg.histogram("falkon.net.reactor.writable_stall_s", 1e-6, 10.0);
    m_connections_ = &reg.gauge("falkon.net.reactor.connections");
  }
}

Reactor::~Reactor() {
  stop();
  if (epfd_ >= 0) ::close(epfd_);
  if (evfd_ >= 0) ::close(evfd_);
}

Status Reactor::start() {
  if (started_) return ok_status();
  // The epoll fd and eventfd live as long as the reactor, not one run of
  // the loop: a producer that queued its op just before the loop stopped
  // may still be writing its wakeup, and must never hit a closed (or
  // reused) descriptor.
  if (epfd_ < 0) {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    evfd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epfd_ < 0 || evfd_ < 0) {
      const std::string why = std::strerror(errno);
      if (epfd_ >= 0) ::close(epfd_);
      if (evfd_ >= 0) ::close(evfd_);
      epfd_ = evfd_ = -1;
      return make_error(ErrorCode::kIoError,
                        "reactor: epoll/eventfd setup failed: " + why);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = evfd_;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, evfd_, &ev);
  }
  {
    std::lock_guard<std::mutex> lock(ops_mu_);
    stopped_ = false;
  }
  thread_ = std::thread([this] { run_loop(); });
  started_ = true;
  return ok_status();
}

void Reactor::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  std::uint64_t one = 1;
  [[maybe_unused]] auto n = ::write(evfd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  timers_->clear();
  started_ = false;
  stopping_.store(false, std::memory_order_release);
}

bool Reactor::post(std::function<void()> op) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(ops_mu_);
    if (stopped_) return false;
    ops_.push_back(std::move(op));
    if (!wake_pending_) {
      wake_pending_ = true;
      wake = true;
    }
  }
  if (wake) {
    std::uint64_t one = 1;
    [[maybe_unused]] auto n = ::write(evfd_, &one, sizeof(one));
  }
  return true;
}

void Reactor::request_flush(const std::shared_ptr<Conn>& conn) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(ops_mu_);
    // A stopped loop closes every connection on shutdown; nothing to flush.
    if (stopped_) return;
    flush_q_.push_back(conn);
    if (!wake_pending_) {
      wake_pending_ = true;
      wake = true;
    }
  }
  if (wake) {
    std::uint64_t one = 1;
    [[maybe_unused]] auto n = ::write(evfd_, &one, sizeof(one));
  }
}

std::shared_ptr<Reactor::Conn> Reactor::adopt(int fd, FrameHandler on_frame,
                                              CloseHandler on_close) {
  auto conn = std::make_shared<Conn>();
  conn->reactor_ = this;
  conn->fd_ = fd;
  conn->on_frame_ = std::move(on_frame);
  conn->on_close_ = std::move(on_close);
  (void)set_nonblocking(fd);
  const bool posted = post([this, conn] {
    bool dead;
    {
      std::lock_guard<std::mutex> lock(conn->mu_);
      dead = conn->dead_;
    }
    if (dead) {  // closed before registration landed
      ::close(conn->fd_);
      conn->fd_ = -1;
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd_;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->fd_, &ev) != 0) {
      ::close(conn->fd_);
      conn->fd_ = -1;
      std::lock_guard<std::mutex> lock(conn->mu_);
      conn->dead_ = true;
      return;
    }
    conns_[conn->fd_] = conn;
    conn->registered_ = true;
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    if (m_connections_ != nullptr) {
      m_connections_->set(static_cast<double>(
          open_conns_.load(std::memory_order_relaxed)));
    }
    loop_flush(conn);  // sends may have queued before registration
  });
  if (!posted) {  // loop not running
    ::close(fd);
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->dead_ = true;
    conn->fd_ = -1;
  }
  return conn;
}

void Reactor::add_listener(int listen_fd, AcceptHandler on_accept) {
  (void)set_nonblocking(listen_fd);
  post([this, listen_fd, handler = std::move(on_accept)]() mutable {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, listen_fd, &ev) != 0) return;
    ListenerState state;
    state.on_accept = std::move(handler);
    listeners_.emplace(listen_fd, std::move(state));
  });
}

void Reactor::remove_listener(int listen_fd) {
  post([this, listen_fd] {
    auto it = listeners_.find(listen_fd);
    if (it == listeners_.end()) return;
    if (it->second.armed) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listen_fd, nullptr);
    }
    listeners_.erase(it);
  });
}

TimerId Reactor::add_timer(double delay_s, TimerFn fn) {
  const TimerId id = next_timer_.fetch_add(1, std::memory_order_relaxed);
  post([this, id, delay_s, fn = std::move(fn)]() mutable {
    timers_->insert(id, delay_s, 0.0, std::move(fn));
  });
  return id;
}

TimerId Reactor::add_periodic(double interval_s, TimerFn fn) {
  const TimerId id = next_timer_.fetch_add(1, std::memory_order_relaxed);
  post([this, id, interval_s, fn = std::move(fn)]() mutable {
    timers_->insert(id, interval_s, interval_s, std::move(fn));
  });
  return id;
}

void Reactor::cancel_timer(TimerId id) {
  // A one-shot that already fired is simply absent from the wheel.
  post([this, id] { timers_->remove(id); });
}

void Reactor::barrier() {
  auto promise = std::make_shared<std::promise<void>>();
  auto future = promise->get_future();
  if (post([promise] { promise->set_value(); })) future.wait();
}

std::size_t Reactor::open_connections() const {
  return open_conns_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Loop body
// ---------------------------------------------------------------------------

void Reactor::run_loop() {
  epoll_event events[kMaxEvents];
  while (true) {
    // Drain posted operations and flush requests.
    std::vector<std::function<void()>> batch;
    std::vector<std::shared_ptr<Conn>> flushes;
    {
      std::lock_guard<std::mutex> lock(ops_mu_);
      std::swap(batch, ops_);
      std::swap(flushes, flush_q_);
      wake_pending_ = false;
    }
    for (auto& op : batch) op();
    for (auto& conn : flushes) {
      {
        std::lock_guard<std::mutex> lock(conn->mu_);
        conn->flush_requested_ = false;
      }
      loop_flush(conn);
    }
    if (stopping_.load(std::memory_order_acquire)) break;

    timers_->advance();

    int timeout = timers_->next_timeout_ms();
    {
      std::lock_guard<std::mutex> lock(ops_mu_);
      if (!ops_.empty() || !flush_q_.empty()) {
        timeout = 0;  // op posted from a timer/callback
      }
    }
    const int n = ::epoll_wait(epfd_, events, kMaxEvents, timeout);
    if (m_wakeups_ != nullptr) m_wakeups_->inc();
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself failed; nothing recoverable
    }
    if (n > 0 && m_epoll_batch_ != nullptr) {
      m_epoll_batch_->record(static_cast<double>(n));
    }
    if (n == 0 && timeout > 0 &&
        timers_->now_s() - last_trim_s_ >= kPoolTrimIntervalS) {
      // Idle wake-up with nothing to do: give pooled buffers back.
      last_trim_s_ = timers_->now_s();
      pool_->trim(*this);
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == evfd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] auto r = ::read(evfd_, &drained, sizeof(drained));
        continue;
      }
      if (listeners_.count(fd) != 0) {
        do_accept(fd);
        continue;
      }
      auto cit = conns_.find(fd);
      if (cit == conns_.end()) continue;  // closed earlier in this batch
      std::shared_ptr<Conn> conn = cit->second;
      if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        handle_readable(conn);
      }
      if (!conn->closed_ && (mask & EPOLLOUT) != 0) {
        handle_writable(conn);
      }
    }
  }

  // Shutdown: refuse further posts, run stragglers, close every connection
  // (firing on_close on this thread, as documented). Pending flush requests
  // are dropped — the close below discards queued output anyway.
  std::vector<std::function<void()>> rest;
  {
    std::lock_guard<std::mutex> lock(ops_mu_);
    stopped_ = true;
    std::swap(rest, ops_);
    flush_q_.clear();
    wake_pending_ = false;
  }
  for (auto& op : rest) op();
  std::vector<std::shared_ptr<Conn>> remaining;
  remaining.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) remaining.push_back(conn);
  for (auto& conn : remaining) do_close(conn);
  for (auto& [fd, state] : listeners_) {
    if (state.armed) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  listeners_.clear();
}

void Reactor::do_accept(int listen_fd) {
  auto it = listeners_.find(listen_fd);
  if (it == listeners_.end()) return;
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      int yes = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
      it->second.backoff_s = 0.0;
      it->second.on_accept(fd);
      // The handler may have removed the listener (server stopping).
      it = listeners_.find(listen_fd);
      if (it == listeners_.end()) return;
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Out of descriptors: spinning on accept would peg the loop without
      // ever succeeding. Withdraw the listener and retry after a backoff —
      // pending connections sit in the kernel backlog meanwhile.
      if (m_accept_rejected_ != nullptr) m_accept_rejected_->inc();
      double& backoff = it->second.backoff_s;
      backoff = (backoff <= 0.0)
                    ? kAcceptBackoffMinS
                    : std::min(backoff * 2.0, kAcceptBackoffMaxS);
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listen_fd, nullptr);
      it->second.armed = false;
      timers_->insert(
          next_timer_.fetch_add(1, std::memory_order_relaxed), backoff, 0.0,
          [this, listen_fd] {
            auto lit = listeners_.find(listen_fd);
            if (lit == listeners_.end()) return;  // removed while backed off
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.fd = listen_fd;
            if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, listen_fd, &ev) == 0) {
              lit->second.armed = true;
            }
            do_accept(listen_fd);  // drain whatever queued during backoff
          });
      return;
    }
    // Listener closed or unusable (EBADF, EINVAL): withdraw it.
    if (it->second.armed) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listen_fd, nullptr);
    }
    listeners_.erase(it);
    return;
  }
}

void Reactor::update_epoll(const std::shared_ptr<Conn>& conn) {
  if (!conn->registered_ || conn->closed_) return;
  epoll_event ev{};
  ev.events = 0;
  if (conn->read_on_ && !conn->read_paused_bp_) ev.events |= EPOLLIN;
  if (conn->epollout_) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd_;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn->fd_, &ev);
}

void Reactor::handle_readable(const std::shared_ptr<Conn>& conn) {
  if (conn->closed_ || !conn->read_on_) return;
  std::size_t budget = kReadBudget;
  while (budget > 0 && !conn->closed_ && !conn->read_paused_bp_) {
    std::uint8_t* dst;
    std::size_t want;
    if (!conn->reading_payload_) {
      dst = conn->header_ + conn->header_got_;
      want = wire::kFrameHeaderBytes - conn->header_got_;
    } else {
      dst = conn->payload_.data() + conn->payload_got_;
      want = conn->cur_len_ - conn->payload_got_;
    }
    const ssize_t n = ::recv(conn->fd_, dst, std::min(want, budget), 0);
    if (n == 0) {  // peer closed
      do_close(conn);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      do_close(conn);
      return;
    }
    budget -= static_cast<std::size_t>(n);
    if (!conn->reading_payload_) {
      conn->header_got_ += static_cast<std::size_t>(n);
      if (conn->header_got_ < wire::kFrameHeaderBytes) continue;
      std::uint32_t len = 0;
      std::uint64_t corr = 0;
      for (int b = 0; b < 4; ++b) {
        len |= static_cast<std::uint32_t>(conn->header_[b]) << (8 * b);
      }
      for (int b = 0; b < 8; ++b) {
        corr |= static_cast<std::uint64_t>(conn->header_[4 + b]) << (8 * b);
      }
      if (len > wire::kMaxFrameBytes) {  // corrupted length; don't allocate it
        do_close(conn);
        return;
      }
      conn->header_got_ = 0;
      conn->cur_corr_ = corr;
      conn->cur_len_ = len;
      conn->payload_got_ = 0;
      if (len == 0) {
        deliver_frame(conn, corr, {});
        continue;
      }
      conn->payload_ = pool_->acquire(*this, len);
      conn->reading_payload_ = true;
    } else {
      conn->payload_got_ += static_cast<std::size_t>(n);
      if (conn->payload_got_ < conn->cur_len_) continue;
      conn->reading_payload_ = false;
      std::vector<std::uint8_t> payload = std::move(conn->payload_);
      conn->payload_ = {};
      deliver_frame(conn, conn->cur_corr_, std::move(payload));
    }
  }
}

void Reactor::deliver_frame(const std::shared_ptr<Conn>& conn,
                            std::uint64_t corr,
                            std::vector<std::uint8_t>&& payload) {
  if (conn->on_frame_) conn->on_frame_(conn, corr, std::move(payload));
  maybe_update_read_interest(conn);
}

void Reactor::maybe_update_read_interest(const std::shared_ptr<Conn>& conn) {
  if (conn->closed_) return;
  std::size_t queued;
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    queued = conn->queued_;
  }
  if (!conn->read_paused_bp_ && queued >= options_.high_watermark_bytes) {
    conn->read_paused_bp_ = true;
    if (m_read_paused_ != nullptr) m_read_paused_->inc();
    update_epoll(conn);
  } else if (conn->read_paused_bp_ && queued <= options_.low_watermark_bytes) {
    conn->read_paused_bp_ = false;
    update_epoll(conn);
  }
}

void Reactor::handle_writable(const std::shared_ptr<Conn>& conn) {
  if (conn->closed_) return;
  if (conn->epollout_) {
    conn->epollout_ = false;
    if (conn->stall_start_ >= 0.0) {
      if (m_writable_stall_ != nullptr) {
        m_writable_stall_->record(timers_->now_s() - conn->stall_start_);
      }
      conn->stall_start_ = -1.0;
    }
    update_epoll(conn);
  }
  loop_flush(conn);
}

void Reactor::arm_writable(const std::shared_ptr<Conn>& conn) {
  if (conn->epollout_) return;
  conn->epollout_ = true;
  conn->stall_start_ = timers_->now_s();
  update_epoll(conn);
}

void Reactor::loop_flush(const std::shared_ptr<Conn>& conn) {
  if (conn->closed_ || !conn->registered_) return;
  if (conn->output_paused_ || conn->epollout_) return;

  // Fully-written buffers, recycled into the pool once the connection
  // mutex is back off (the pool mutex is a leaf).
  std::vector<std::vector<std::uint8_t>> done_bufs;

  while (true) {
    iovec iov[kMaxIov];
    int niov = 0;
    std::size_t gathered = 0;
    double pause_s = 0.0;
    {
      // Producers only push_back, which never invalidates references to
      // existing deque elements, so the gathered pointers stay valid after
      // the lock is dropped; only this thread pops.
      std::lock_guard<std::mutex> lock(conn->mu_);
      std::size_t off = conn->front_off_;
      for (const auto& chunk : conn->outbox_) {
        if (chunk.pause_s > 0.0) {
          if (niov == 0) pause_s = chunk.pause_s;
          break;
        }
        if (niov == kMaxIov) break;
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(chunk.bytes.data()) + off;
        iov[niov].iov_len = chunk.bytes.size() - off;
        gathered += iov[niov].iov_len;
        ++niov;
        off = 0;
      }
      if (pause_s > 0.0) conn->outbox_.pop_front();
    }
    if (pause_s > 0.0) {
      // Fault-injected delay: park the outbox on the timer wheel instead of
      // sleeping a thread. Bytes queued behind the marker wait it out.
      conn->output_paused_ = true;
      timers_->insert(next_timer_.fetch_add(1, std::memory_order_relaxed),
                      pause_s, 0.0, [this, conn] {
                        conn->output_paused_ = false;
                        loop_flush(conn);
                      });
      break;
    }
    if (niov == 0) break;  // outbox drained

    const ssize_t n = ::writev(conn->fd_, iov, niov);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        arm_writable(conn);
        break;
      }
      do_close(conn);
      return;
    }
    std::size_t frames_done = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu_);
      conn->queued_ -= static_cast<std::size_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        auto& front = conn->outbox_.front();
        const std::size_t remain = front.bytes.size() - conn->front_off_;
        if (left >= remain) {
          left -= remain;
          conn->front_off_ = 0;
          done_bufs.push_back(std::move(front.bytes));
          conn->outbox_.pop_front();
          ++frames_done;
        } else {
          conn->front_off_ += left;
          left = 0;
        }
      }
    }
    if (frames_done > 1 && m_coalesced_ != nullptr) {
      m_coalesced_->inc(frames_done - 1);
    }
    if (static_cast<std::size_t>(n) < gathered) {  // partial write
      arm_writable(conn);
      break;
    }
  }

  for (auto& buf : done_bufs) pool_->release(*this, std::move(buf));

  bool drained;
  bool close_after;
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    drained = conn->outbox_.empty();
    close_after = conn->close_after_flush_;
  }
  if (drained && close_after && !conn->output_paused_ && !conn->epollout_) {
    do_close(conn);
    return;
  }
  maybe_update_read_interest(conn);
}

void Reactor::do_close(const std::shared_ptr<Conn>& conn) {
  if (conn->closed_) return;
  conn->closed_ = true;
  std::deque<Conn::OutChunk> discarded;
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->dead_ = true;
    discarded.swap(conn->outbox_);
    conn->queued_ = 0;
  }
  // Recycle whatever the connection was holding — unsent output and the
  // in-progress decode buffer go back to the pool.
  for (auto& chunk : discarded) {
    if (!chunk.bytes.empty() || chunk.bytes.capacity() > 0) {
      pool_->release(*this, std::move(chunk.bytes));
    }
  }
  if (conn->payload_.capacity() > 0) {
    pool_->release(*this, std::move(conn->payload_));
    conn->payload_ = {};
  }
  if (conn->registered_) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->fd_, nullptr);
    conns_.erase(conn->fd_);
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    if (m_connections_ != nullptr) {
      m_connections_->set(static_cast<double>(
          open_conns_.load(std::memory_order_relaxed)));
    }
  }
  ::close(conn->fd_);
  conn->fd_ = -1;
  if (conn->on_close_) conn->on_close_(conn);
  conn->on_frame_ = nullptr;
  conn->on_close_ = nullptr;
}

// ---------------------------------------------------------------------------
// Conn
// ---------------------------------------------------------------------------

Status Reactor::Conn::send_frame(std::uint64_t corr,
                                 const std::vector<std::uint8_t>& payload) {
  const std::size_t total = wire::kFrameHeaderBytes + payload.size();
  std::vector<std::uint8_t> bytes = reactor_->pool_->acquire(*reactor_, total);
  wire::put_frame_header(bytes.data(), corr,
                         static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(bytes.data() + wire::kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return send_raw(std::move(bytes));
}

Status Reactor::Conn::send_raw(std::vector<std::uint8_t> bytes) {
  bool need_post = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return make_error(ErrorCode::kClosed, "connection closed");
    queued_ += bytes.size();
    OutChunk chunk;
    chunk.bytes = std::move(bytes);
    outbox_.push_back(std::move(chunk));
    if (!flush_requested_) {
      flush_requested_ = true;
      need_post = true;
    }
  }
  if (need_post) reactor_->request_flush(shared_from_this());
  return ok_status();
}

void Reactor::Conn::recycle(std::vector<std::uint8_t>&& buffer) {
  reactor_->pool_->release(*reactor_, std::move(buffer));
}

void Reactor::Conn::pause_output(double delay_s) {
  bool need_post = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return;
    OutChunk marker;
    marker.pause_s = delay_s;
    outbox_.push_back(std::move(marker));
    if (!flush_requested_) {
      flush_requested_ = true;
      need_post = true;
    }
  }
  if (need_post) reactor_->request_flush(shared_from_this());
}

void Reactor::Conn::close_after_flush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return;
    dead_ = true;
    close_after_flush_ = true;
  }
  reactor_->post([conn = shared_from_this()] {
    if (conn->closed_) return;
    conn->read_on_ = false;
    conn->reactor_->update_epoll(conn);
    conn->reactor_->loop_flush(conn);
  });
}

void Reactor::Conn::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_ && close_after_flush_) {
      close_after_flush_ = false;  // upgrade a graceful close to immediate
    } else if (dead_) {
      return;
    }
    dead_ = true;
  }
  reactor_->post(
      [conn = shared_from_this()] { conn->reactor_->do_close(conn); });
}

std::size_t Reactor::Conn::queued_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

bool Reactor::Conn::overloaded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_ >= reactor_->options_.high_watermark_bytes;
}

}  // namespace falkon::net
