#ifndef ANC_NET_SOCKET_H_
#define ANC_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace anc::net {

/// Thin blocking TCP wrappers (docs/networking.md). Every call loops on
/// EINTR and converts errno into a Status; file descriptors are plain ints
/// owned by the caller (the server and client wrap them in RAII at their
/// layer). IPv4 only — the serving tier fronts a LAN/loopback fleet, not
/// the open internet.

/// Opens a listening socket bound to host:port (port 0 = ephemeral;
/// SO_REUSEADDR set). Returns the listening fd.
Result<int> ListenTcp(const std::string& host, uint16_t port,
                      int backlog = 128);

/// The port a socket is actually bound to (resolves port 0).
Result<uint16_t> LocalPort(int fd);

/// Accepts one connection (blocking). Unavailable when the listening fd
/// was shut down / closed — the server's clean-stop signal.
Result<int> AcceptConn(int listen_fd);

/// Connects to host:port (blocking) and enables TCP_NODELAY — the RPC
/// protocol is request/response, so Nagle only adds latency.
Result<int> ConnectTcp(const std::string& host, uint16_t port);

/// Sends all `size` bytes (blocking, EINTR/short-write safe).
Status SendAll(int fd, const void* data, size_t size);

/// Receives exactly `size` bytes. Unavailable on clean EOF before any
/// byte, IoError on mid-message EOF or a socket error.
Status RecvAll(int fd, void* data, size_t size);

/// shutdown(SHUT_RDWR): wakes any thread blocked on the fd (the server's
/// stop path); ignores errors on already-dead sockets.
void ShutdownFd(int fd);

/// close() with EINTR handling; negative fds are ignored.
void CloseFd(int fd);

}  // namespace anc::net

#endif  // ANC_NET_SOCKET_H_
