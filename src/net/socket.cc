#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace anc::net {
namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

Status ResolveIpv4(const std::string& host, uint16_t port,
                   sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const char* name = host.empty() ? "0.0.0.0" : host.c_str();
  if (host == "localhost") name = "127.0.0.1";
  if (inet_pton(AF_INET, name, &addr->sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return Status::OK();
}

}  // namespace

Result<int> ListenTcp(const std::string& host, uint16_t port, int backlog) {
  sockaddr_in addr;
  ANC_RETURN_NOT_OK(ResolveIpv4(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(Errno("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::IoError(Errno("bind"));
    CloseFd(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = Status::IoError(Errno("listen"));
    CloseFd(fd);
    return status;
  }
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::IoError(Errno("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<int> AcceptConn(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EINTR) continue;
    // EBADF / EINVAL after the stop path shut the listener down.
    return Status::Unavailable(Errno("accept"));
  }
}

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  ANC_RETURN_NOT_OK(ResolveIpv4(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(Errno("socket"));
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    Status status = Status::Unavailable("connect " + host + ":" +
                                        std::to_string(port) + ": " +
                                        std::strerror(errno));
    CloseFd(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SendAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IoError(Errno("send"));
  }
  return Status::OK();
}

Status RecvAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      // Clean EOF before any byte is the peer hanging up between requests;
      // EOF mid-message is a truncated frame.
      return got == 0 ? Status::Unavailable("connection closed")
                      : Status::IoError("connection closed mid-message");
    }
    return Status::IoError(Errno("recv"));
  }
  return Status::OK();
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void CloseFd(int fd) {
  if (fd < 0) return;
  while (::close(fd) != 0 && errno == EINTR) {
  }
}

}  // namespace anc::net
