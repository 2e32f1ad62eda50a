// Socket endpoints and RAII listeners for the serving tier.
//
// The socket server (service/socket_server.hpp) and its clients agree on
// one textual address syntax: a string containing "HOST:PORT" (numeric
// IPv4 or "localhost", port 0 = kernel-assigned) is a TCP endpoint, and
// anything else is a Unix-domain socket path. The transport is a
// deliberately swappable detail — the framed protocol (frame.hpp) and the
// serving semantics are identical over both.
//
// Listener owns the listening fd, resolves an ephemeral TCP port to the
// real one at open time, and unlinks its Unix socket path on destruction.
// A stale Unix path (left by a crashed server) is detected by probing it
// with a connect: refused/absent peer => safe to unlink and rebind; a
// live peer => NetError "already in use", never a silent steal.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "support/fdio.hpp"

namespace distapx::net {

/// Thrown on endpoint parse errors, socket syscall failures, and client
/// I/O failures. The message names the endpoint and the failing call.
class NetError final : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< Unix socket path (kind == kUnix)
  std::string host;  ///< numeric IPv4 or "localhost" (kind == kTcp)
  std::uint16_t port = 0;  ///< 0 = ephemeral (resolved by Listener::open)

  [[nodiscard]] std::string to_string() const;
};

/// "HOST:PORT" (host a dotted quad or "localhost", port a decimal in
/// [0, 65535]) parses as TCP; every other nonempty string is a Unix
/// path. Throws NetError on an empty string or a malformed TCP port.
Endpoint parse_endpoint(const std::string& text);

/// Listening socket: bound, listening, nonblocking, close-on-exec.
class Listener {
 public:
  /// Binds and listens. Throws NetError (address in use, bad host, Unix
  /// path longer than sun_path, ...).
  static Listener open(const Endpoint& ep, int backlog = 64);

  Listener(Listener&&) noexcept = default;
  Listener& operator=(Listener&&) noexcept = default;
  ~Listener();

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  /// The bound endpoint; for TCP port 0 this carries the kernel-assigned
  /// port, so a test or CLI can print the address clients should dial.
  [[nodiscard]] const Endpoint& endpoint() const noexcept { return ep_; }

  /// One nonblocking accept: a valid (nonblocking, cloexec) connection
  /// fd, or an invalid Fd when no connection is pending. Transient
  /// per-connection failures (ECONNABORTED) read as "none pending"; a
  /// hard failure (EMFILE, ENFILE, ENOBUFS, ...) also returns an invalid
  /// Fd and leaves its errno in `err`, which is 0 otherwise.
  fdio::Fd accept_connection(int& err);

 private:
  Listener() = default;

  fdio::Fd fd_;
  Endpoint ep_;
};

/// Blocking client connect (close-on-exec; the fd stays blocking — the
/// client protocol is strictly request/response). Throws NetError.
fdio::Fd connect_endpoint(const Endpoint& ep);

/// connect_endpoint with bounded retry: transient dial failures (the
/// server not bound/listening yet — ENOENT on a Unix path, ECONNREFUSED
/// on TCP — plus accept-race resets) back off exponentially (1ms
/// doubling, capped at 100ms) until ~timeout_ms has elapsed, then the
/// last error is thrown as NetError. Non-transient errors throw
/// immediately; timeout_ms = 0 means a single attempt.
fdio::Fd connect_endpoint_retry(const Endpoint& ep, std::uint32_t timeout_ms);

}  // namespace distapx::net
