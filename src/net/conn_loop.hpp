// The one poll(2) loop of a serving process.
//
// ConnLoop owns a self-pipe, the listeners and every accepted connection:
// its nonblocking fd, its output buffer, close-after-flush, and a reap
// deadline so that a peer which stalls mid-request or stops reading
// cannot pin the connection forever. Each listener has a Handler that
// decides what its connections' bytes mean and keeps their protocol
// state in the Session each Conn owns: the socket server for the framed
// protocol, net::AdminHandler (http_admin.hpp) for the admin routes.
//
// A failed accept (EMFILE, ENFILE, ...) is logged and takes that listener
// out of the poll set for kAcceptBackoffMs; open connections keep being
// served. Everything runs on the thread that calls run(), except wake()
// and request_stop(), which are safe from any thread and from signal
// handlers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.hpp"
#include "support/fdio.hpp"

namespace distapx::net {

/// How long a listener whose accept failed stays out of the poll set.
inline constexpr std::uint32_t kAcceptBackoffMs = 100;

class ConnLoop {
 public:
  using Clock = std::chrono::steady_clock;
  class Handler;

  /// A handler's protocol state for one connection, owned by its Conn.
  struct Session {
    virtual ~Session() = default;
  };

  /// One accepted connection; valid until Handler::on_close returns. A
  /// handler queues output by appending to `out` and sets `mid_request`
  /// while a request is partly received, which keeps the reap clock
  /// running with no output pending (the slow-loris defence).
  struct Conn {
    std::uint64_t id;
    fdio::Fd fd;
    Handler* handler;
    std::uint32_t timeout_ms;  ///< reap clock length; 0 = never reap
    std::unique_ptr<Session> session{};  ///< from handler->on_open
    std::string out{};                   ///< out[outoff..] is not yet sent
    std::size_t outoff = 0;
    std::uint64_t sent_total = 0;  ///< bytes handed to the kernel so far
    bool closing = false;
    bool read_eof = false;  ///< peer half-closed; output may still flow
    bool mid_request = false;
    Clock::time_point deadline = Clock::time_point::max();  ///< reap time

    /// Stop reading; close once `out` is flushed (or the reap deadline
    /// passes first).
    void close();
    /// Close within this iteration, discarding output not yet sent.
    void drop();
    /// One best-effort write for a peer about to be dropped, made only
    /// onto an empty output buffer (it would corrupt a half-sent one).
    void last_words(std::string_view bytes) noexcept;
    [[nodiscard]] bool has_output() const noexcept {
      return outoff < out.size();
    }
    /// sent_total once everything queued so far is out.
    [[nodiscard]] std::uint64_t queued_total() const noexcept {
      return sent_total + (out.size() - outoff);
    }
  };

  enum class CloseReason {
    kClosed,   ///< close()/drop() finished, or a write found the peer gone
    kReset,    ///< read error, or a hangup with nothing left to read
    kTimeout,  ///< the reap deadline passed
  };

  /// What one listener's connections mean.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A connection was accepted; returns its protocol state.
    virtual std::unique_ptr<Session> on_open(Conn& c) = 0;
    /// Bytes arrived; not called again once c.closing.
    virtual void on_data(Conn& c, std::string_view bytes) = 0;
    /// The peer half-closed; output can still be sent.
    virtual void on_eof(Conn& c) = 0;
    /// `n` more bytes of c's output reached the kernel.
    virtual void on_sent(Conn& /*c*/, std::size_t /*n*/) {}
    /// c is about to close; its fd is still open for last_words.
    virtual void on_close(Conn& /*c*/, CloseReason /*why*/) {}
    /// Once per wakeup, before any accept or connection I/O.
    virtual void on_wake() {}
    /// Once a stop is requested, run() returns when every handler is done.
    virtual bool done() { return true; }
  };

  /// Serves `listener` through `handler`, which must outlive run(). Its
  /// connections are reaped after idle_timeout_ms stalled mid-request or
  /// unable to flush (0 = never).
  void listen(Listener listener, Handler& handler,
              std::uint32_t idle_timeout_ms);
  /// Closes handler's listener (a Unix path is unlinked); its accepted
  /// connections stay.
  void stop_accepting(const Handler& handler) noexcept;

  /// The open connection `id`, or null.
  [[nodiscard]] Conn* find(std::uint64_t id);
  /// Calls f(Conn&) on each open connection of handler's listener.
  template <class F>
  void for_each(const Handler& handler, F f) {
    for (auto& [id, c] : conns_) {
      if (c.handler == &handler) f(c);
    }
  }

  /// Serves until request_stop() has been called and every handler is
  /// done(), then closes every listener and connection left. Throws
  /// NetError if poll fails.
  void run();

  /// Wakes a blocked run() so that the handlers' on_wake runs.
  void wake() noexcept { wake_.poke(); }
  void request_stop() noexcept {
    stop_.store(true);
    wake_.poke();
  }
  [[nodiscard]] bool stop_requested() const noexcept { return stop_.load(); }

 private:
  struct Slot {
    Handler* handler;
    std::optional<Listener> listener;  ///< reset by stop_accepting
    std::uint32_t timeout_ms;
    Clock::time_point paused_until{};  ///< accept backoff
    std::size_t pfd = 0;  ///< index in this iteration's poll set; 0 = none
  };
  using ConnMap = std::map<std::uint64_t, Conn>;

  void accept_all(Slot& slot);
  /// Both return why the connection must go, or nullopt if it stays.
  std::optional<CloseReason> read_from(Conn& c);
  std::optional<CloseReason> flush(Conn& c);
  ConnMap::iterator erase(ConnMap::iterator it, CloseReason why);

  fdio::Pipe wake_;
  std::atomic<bool> stop_{false};
  std::vector<Slot> slots_;
  ConnMap conns_;
  std::uint64_t next_id_ = 1;
};

}  // namespace distapx::net
