#include "net/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "support/parse.hpp"

namespace distapx::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

/// Numeric IPv4, with "localhost" as the one symbolic name (no DNS — the
/// serving tier is a localhost/LAN tool and must not block on resolvers).
in_addr parse_host(const std::string& host) {
  in_addr addr{};
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr) != 1) {
    throw NetError("bad host \"" + host +
                   "\" (need a numeric IPv4 address or \"localhost\")");
  }
  return addr;
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw NetError("unix socket path too long (" + std::to_string(path.size()) +
                   " bytes, max " + std::to_string(sizeof addr.sun_path - 1) +
                   "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

fdio::Fd make_socket(int domain) {
  fdio::Fd fd(::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) throw_errno("socket");
  return fd;
}

/// A Unix path already occupied by a socket is either a live server or a
/// stale dropping from a crashed one. Probing with connect distinguishes
/// them: only a refused/absent peer may be unlinked.
void reclaim_stale_unix_path(const std::string& path,
                             const sockaddr_un& addr) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) return;  // nothing there
  if (!S_ISSOCK(st.st_mode)) {
    throw NetError("listen path " + path + " exists and is not a socket");
  }
  fdio::Fd probe = make_socket(AF_UNIX);
  if (::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) == 0) {
    throw NetError("listen path " + path + " already has a live server");
  }
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    throw_errno("unlink stale socket " + path);
  }
}

}  // namespace

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return path;
  return host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& text) {
  if (text.empty()) throw NetError("empty endpoint");
  const auto colon = text.rfind(':');
  if (colon != std::string::npos && colon > 0 && colon + 1 < text.size()) {
    const std::string host = text.substr(0, colon);
    const auto port = parse_uint_strict(text.substr(colon + 1), 65535);
    // Only a well-formed HOST:PORT is TCP; "some:path" with a non-numeric
    // tail falls through to the Unix interpretation. A path can always be
    // disambiguated by writing it as "./some:path" — parse_host rejects it
    // loudly if the intent was TCP.
    if (port) {
      bool host_like = host == "localhost";
      if (!host_like) {
        in_addr probe{};
        host_like = ::inet_pton(AF_INET, host.c_str(), &probe) == 1;
      }
      if (host_like) {
        Endpoint ep;
        ep.kind = Endpoint::Kind::kTcp;
        ep.host = host;
        ep.port = static_cast<std::uint16_t>(*port);
        return ep;
      }
    }
  }
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = text;
  return ep;
}

Listener Listener::open(const Endpoint& ep, int backlog) {
  Listener listener;
  listener.ep_ = ep;
  if (ep.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = unix_addr(ep.path);
    reclaim_stale_unix_path(ep.path, addr);
    listener.fd_ = make_socket(AF_UNIX);
    if (::bind(listener.fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw_errno("bind " + ep.path);
    }
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = parse_host(ep.host);
    addr.sin_port = htons(ep.port);
    listener.fd_ = make_socket(AF_INET);
    const int one = 1;
    ::setsockopt(listener.fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);
    if (::bind(listener.fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw_errno("bind " + ep.to_string());
    }
    if (ep.port == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      if (::getsockname(listener.fd_.get(),
                        reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        throw_errno("getsockname " + ep.to_string());
      }
      listener.ep_.port = ntohs(bound.sin_port);
    }
  }
  if (::listen(listener.fd_.get(), backlog) != 0) {
    throw_errno("listen " + ep.to_string());
  }
  if (!fdio::set_nonblocking(listener.fd_.get())) {
    throw_errno("set_nonblocking " + ep.to_string());
  }
  return listener;
}

Listener::~Listener() {
  if (fd_ && ep_.kind == Endpoint::Kind::kUnix) {
    ::unlink(ep_.path.c_str());
  }
}

fdio::Fd Listener::accept_connection(int& err) {
  err = 0;
  for (;;) {
    fdio::Fd conn(::accept4(fd_.get(), nullptr, nullptr,
                            SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (conn) return conn;
    if (errno == EINTR) continue;
    // The peer can abort between the kernel queuing the connection and us
    // accepting it; that is its problem, not the accept loop's.
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ECONNABORTED) {
      err = errno;
    }
    return fdio::Fd();
  }
}

namespace {

/// One dial attempt; on failure returns an empty Fd with errno set.
fdio::Fd try_connect(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = unix_addr(ep.path);
    fdio::Fd fd = make_socket(AF_UNIX);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      return fdio::Fd();
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = parse_host(ep.host);
  addr.sin_port = htons(ep.port);
  fdio::Fd fd = make_socket(AF_INET);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    return fdio::Fd();
  }
  return fd;
}

/// Failures a not-yet-listening or briefly overloaded server produces;
/// anything else (EACCES, ENETUNREACH, a host that does not resolve...)
/// will not heal by waiting and fails fast even under retry.
bool transient_dial_errno(int err) {
  return err == ECONNREFUSED || err == ENOENT || err == ECONNRESET ||
         err == ETIMEDOUT || err == EAGAIN || err == EINTR;
}

}  // namespace

fdio::Fd connect_endpoint(const Endpoint& ep) {
  fdio::Fd fd = try_connect(ep);
  if (!fd) throw_errno("connect " + ep.to_string());
  return fd;
}

fdio::Fd connect_endpoint_retry(const Endpoint& ep,
                                std::uint32_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::uint32_t backoff_ms = 1;
  for (;;) {
    fdio::Fd fd = try_connect(ep);
    if (fd) return fd;
    if (!transient_dial_errno(errno) ||
        std::chrono::steady_clock::now() >= deadline) {
      throw_errno("connect " + ep.to_string());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 100u);
  }
}

}  // namespace distapx::net
