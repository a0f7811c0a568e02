#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace falkon::net {
namespace {

Error errno_error(const char* operation) {
  return make_error(ErrorCode::kIoError,
                    strf("%s: %s", operation, std::strerror(errno)));
}

}  // namespace

void FdHandle::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpStream> TcpStream::connect(const std::string& host,
                                     std::uint16_t port) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_error("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return make_error(ErrorCode::kInvalidArgument, "bad address: " + host);
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return errno_error("connect");
  }
  // Dispatch messages are small and latency-sensitive: disable Nagle.
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(std::move(fd));
}

Status TcpStream::write_all(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_.get(), p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return ok_status();
}

Status TcpStream::write_gather(const ConstBuf* bufs, std::size_t count) {
  // One sendmsg(2) per batch of coalesced frames (falling back to partial
  // resume on short writes). iovec mirrors ConstBuf's layout by construction,
  // but the kernel may scribble nothing — we copy so the retry loop can
  // advance base/len without mutating the caller's spans.
  constexpr std::size_t kMaxIov = 64;
  iovec iov[kMaxIov];
  std::size_t offset = 0;
  while (offset < count) {
    const std::size_t chunk = std::min(count - offset, kMaxIov);
    std::size_t used = 0;
    std::size_t pending = 0;
    for (std::size_t i = 0; i < chunk; ++i) {
      const auto& buf = bufs[offset + i];
      if (buf.size == 0) continue;
      iov[used].iov_base = const_cast<void*>(buf.data);
      iov[used].iov_len = buf.size;
      pending += buf.size;
      ++used;
    }
    offset += chunk;
    std::size_t first = 0;
    while (pending > 0) {
      msghdr msg{};
      msg.msg_iov = iov + first;
      msg.msg_iovlen = used - first;
      const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno_error("sendmsg");
      }
      pending -= static_cast<std::size_t>(n);
      std::size_t advanced = static_cast<std::size_t>(n);
      while (advanced > 0 && advanced >= iov[first].iov_len) {
        advanced -= iov[first].iov_len;
        ++first;
      }
      if (advanced > 0) {
        iov[first].iov_base =
            static_cast<std::uint8_t*>(iov[first].iov_base) + advanced;
        iov[first].iov_len -= advanced;
      }
    }
  }
  return ok_status();
}

Status TcpStream::read_exact(void* data, std::size_t size) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t received = 0;
  while (received < size) {
    const ssize_t n = ::recv(fd_.get(), p + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("recv");
    }
    if (n == 0) {
      return make_error(ErrorCode::kClosed, "peer closed connection");
    }
    received += static_cast<std::size_t>(n);
  }
  return ok_status();
}

void TcpStream::shutdown() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

Result<TcpListener> TcpListener::bind(std::uint16_t port) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_error("socket");

  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return errno_error("bind");
  }
  if (::listen(fd.get(), 1024) != 0) return errno_error("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return errno_error("getsockname");
  }

  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<TcpStream> TcpListener::accept() {
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EBADF || errno == EINVAL) {
      return make_error(ErrorCode::kClosed, "listener closed");
    }
    return errno_error("accept");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(FdHandle(fd));
}

void TcpListener::close() {
  if (fd_.valid()) {
    ::shutdown(fd_.get(), SHUT_RDWR);
    fd_.reset();
  }
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return errno_error("fcntl(O_NONBLOCK)");
  }
  return ok_status();
}

Status set_send_buffer(int fd, int bytes) {
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) != 0) {
    return errno_error("setsockopt(SO_SNDBUF)");
  }
  return ok_status();
}

}  // namespace falkon::net
