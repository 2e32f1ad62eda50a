#include "net/conn_loop.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>

#include "support/log.hpp"

namespace distapx::net {

namespace {

using Clock = ConnLoop::Clock;

/// Nonblocking send; returns bytes written (0 on EAGAIN), -1 on a dead
/// peer. MSG_NOSIGNAL: a hung-up client must never SIGPIPE the server.
ssize_t send_some(int fd, const char* data, std::size_t n) noexcept {
  for (;;) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w >= 0) return w;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

Clock::time_point after_ms(std::uint32_t ms) {
  return Clock::now() + std::chrono::milliseconds(ms);
}

}  // namespace

void ConnLoop::Conn::close() {
  closing = true;
  // A peer that never reads must not pin the connection (or a drain).
  if (has_output() && timeout_ms != 0) deadline = after_ms(timeout_ms);
}

void ConnLoop::Conn::drop() {
  closing = true;
  out.clear();
  outoff = 0;
}

void ConnLoop::Conn::last_words(std::string_view bytes) noexcept {
  if (!has_output()) (void)send_some(fd.get(), bytes.data(), bytes.size());
}

void ConnLoop::listen(Listener listener, Handler& handler,
                      std::uint32_t idle_timeout_ms) {
  slots_.push_back(Slot{&handler, std::move(listener), idle_timeout_ms});
}

void ConnLoop::stop_accepting(const Handler& handler) noexcept {
  for (Slot& slot : slots_) {
    if (slot.handler == &handler) slot.listener.reset();
  }
}

ConnLoop::Conn* ConnLoop::find(std::uint64_t id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

void ConnLoop::run() {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> polled;  // conn id of pfds[first_conn_pfd + i]
  for (;;) {
    // Closing connections with nothing left to flush are done; sweeping
    // here (not just in the event handlers) catches the ones a drain
    // marked, so a drain with idle clients cannot park in poll forever.
    for (auto it = conns_.begin(); it != conns_.end();) {
      it = it->second.closing && !it->second.has_output()
               ? erase(it, CloseReason::kClosed)
               : std::next(it);
    }
    if (stop_requested() &&
        std::all_of(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.handler->done(); })) {
      break;
    }

    pfds.clear();
    polled.clear();
    const Clock::time_point now = Clock::now();
    Clock::time_point nearest = Clock::time_point::max();
    pfds.push_back({wake_.read_fd(), POLLIN, 0});
    for (Slot& slot : slots_) {
      slot.pfd = 0;
      if (!slot.listener) continue;
      // A listener in accept backoff sits out of the poll set; its resume
      // time bounds the wait like a reap deadline.
      if (slot.paused_until > now) {
        nearest = std::min(nearest, slot.paused_until);
        continue;
      }
      slot.pfd = pfds.size();
      pfds.push_back({slot.listener->fd(), POLLIN, 0});
    }
    const std::size_t first_conn_pfd = pfds.size();
    for (auto& [id, c] : conns_) {
      short events = 0;
      if (!c.closing && !c.read_eof) events |= POLLIN;
      if (c.has_output()) {
        events |= POLLOUT;
        // Undelivered output puts the peer on the reap clock too, not
        // just a stalled request: a client that never reads must not pin
        // the connection, or its growing buffer, forever. flush() pushes
        // the deadline on every bit of progress.
        if (c.timeout_ms != 0 && c.deadline == Clock::time_point::max()) {
          c.deadline = now + std::chrono::milliseconds(c.timeout_ms);
        }
      }
      pfds.push_back({c.fd.get(), events, 0});
      polled.push_back(id);
      nearest = std::min(nearest, c.deadline);
    }

    int timeout_ms = -1;
    if (nearest != Clock::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            nearest - Clock::now())
                            .count();
      timeout_ms = left < 0 ? 0 : static_cast<int>(left) + 1;
    }
    if (::poll(pfds.data(), pfds.size(), timeout_ms) < 0 && errno != EINTR) {
      throw NetError(std::string("poll: ") + std::strerror(errno));
    }
    if (pfds[0].revents & POLLIN) wake_.drain();
    for (Slot& slot : slots_) slot.handler->on_wake();

    // on_wake may have closed a listener (a drain began): its pollfd is
    // then stale.
    for (Slot& slot : slots_) {
      if (slot.listener && slot.pfd != 0 && (pfds[slot.pfd].revents & POLLIN)) {
        accept_all(slot);
      }
    }

    for (std::size_t i = 0; i < polled.size(); ++i) {
      const auto it = conns_.find(polled[i]);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      const short re = pfds[first_conn_pfd + i].revents;
      std::optional<CloseReason> gone;
      if ((re & POLLIN) && !c.closing) gone = read_from(c);
      // Output queued by this very iteration (a PONG, a completion
      // delivered in on_wake) often fits the socket buffer: write it now
      // instead of waiting a poll cycle for POLLOUT.
      if (!gone && c.has_output()) gone = flush(c);
      if (!gone && c.closing && !c.has_output()) gone = CloseReason::kClosed;
      if (!gone && (re & (POLLERR | POLLHUP | POLLNVAL)) && !(re & POLLIN)) {
        gone = CloseReason::kReset;
      }
      if (!gone && Clock::now() >= c.deadline) gone = CloseReason::kTimeout;
      if (gone) erase(it, *gone);
    }
  }
  conns_.clear();
  slots_.clear();
}

void ConnLoop::accept_all(Slot& slot) {
  for (;;) {
    int err = 0;
    fdio::Fd fd = slot.listener->accept_connection(err);
    if (err != 0) {
      // Out of fds (EMFILE/ENFILE) or kernel memory: the pending peer
      // stays queued in the backlog. Back off instead of spinning on a
      // listener that stays readable; everything open keeps serving.
      logx::error("accept_failed",
                  {{"endpoint", slot.listener->endpoint().to_string()},
                   {"err", std::strerror(err)},
                   {"backoff_ms", kAcceptBackoffMs}});
      slot.paused_until = after_ms(kAcceptBackoffMs);
      return;
    }
    if (!fd) return;
    const std::uint64_t id = next_id_++;
    Conn& c = conns_
                  .emplace(id, Conn{id, std::move(fd), slot.handler,
                                    slot.timeout_ms})
                  .first->second;
    c.session = slot.handler->on_open(c);
    // A protocol that owes a request from the first moment starts the
    // reap clock at accept.
    if (c.mid_request && c.timeout_ms != 0) c.deadline = after_ms(c.timeout_ms);
  }
}

std::optional<ConnLoop::CloseReason> ConnLoop::read_from(Conn& c) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t r = fdio::read_some(c.fd.get(), buf, sizeof buf);
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return CloseReason::kReset;
    }
    if (r == 0) {
      c.read_eof = true;
      c.handler->on_eof(c);
      break;
    }
    c.handler->on_data(c, std::string_view(buf, static_cast<std::size_t>(r)));
    if (c.closing) break;
    if (r < static_cast<ssize_t>(sizeof buf)) break;  // drained the socket
  }
  // A partly received request puts the peer on the clock.
  if (!c.closing && c.timeout_ms != 0) {
    c.deadline =
        c.mid_request ? after_ms(c.timeout_ms) : Clock::time_point::max();
  }
  return std::nullopt;
}

std::optional<ConnLoop::CloseReason> ConnLoop::flush(Conn& c) {
  while (c.has_output()) {
    const ssize_t w = send_some(c.fd.get(), c.out.data() + c.outoff,
                                c.out.size() - c.outoff);
    if (w < 0) return CloseReason::kClosed;  // the peer is gone
    if (w == 0) return std::nullopt;         // buffer full; wait for POLLOUT
    c.outoff += static_cast<std::size_t>(w);
    c.sent_total += static_cast<std::uint64_t>(w);
    c.handler->on_sent(c, static_cast<std::size_t>(w));
    // Progress resets the reap clock: only a peer *refusing* to read runs
    // it out, not a slow one.
    if (c.timeout_ms != 0) c.deadline = after_ms(c.timeout_ms);
  }
  c.out.clear();
  c.outoff = 0;
  if (c.closing) return CloseReason::kClosed;
  if (c.timeout_ms != 0 && !c.mid_request) {
    c.deadline = Clock::time_point::max();
  }
  return std::nullopt;
}

ConnLoop::ConnMap::iterator ConnLoop::erase(ConnMap::iterator it,
                                            CloseReason why) {
  it->second.handler->on_close(it->second, why);
  return conns_.erase(it);
}

}  // namespace distapx::net
