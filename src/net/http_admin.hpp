// Minimal HTTP/1.0 admin endpoint for a serving process.
//
// Five routes, all GET, all close-after-response:
//
//   /metrics  -> 200, Prometheus text exposition (version 0.0.4) of the
//                process registry's snapshot at scrape time
//   /healthz  -> 200 "ok" when serving; 503 "draining" once drain has
//                begun; 503 "starting" before the serving loop is up.
//                Health is read from the registry's `ready` / `draining`
//                gauges, which the socket server / daemon maintain — the
//                admin plane holds no state of its own.
//   /statusz  -> 200, human-oriented one-page process summary: build and
//                engine/protocol versions, uptime, the static facts the
//                serving mode registered (lanes, cache dir, journal), the
//                process durability level, live gauges, and rusage.
//   /tracez   -> 200, the trace sink's retained traces (recent ring +
//                slowest-K per endpoint) as indented text trees; a plain
//                note when no sink is attached.
//   /vars     -> 200, raw "name value" lines of every metric — counters,
//                gauges, float gauges, and histogram count/sum plus
//                cumulative and recent-window p50/p95/p99 — for scripts
//                that don't want to parse Prometheus framing.
//
// The admin plane has no thread or loop of its own: AdminHandler serves
// it as one more listener on a net::ConnLoop (conn_loop.hpp) — the
// socket server's I/O thread, or in spool mode a loop with only this
// listener. Every route reads the registry's atomics, so /metrics stays
// scrapeable while every executor lane is busy; that is the point of an
// admin plane. HTTP support is deliberately narrow: GET only, request
// line + headers parsed just enough to route, kAdminMaxRequestBytes per
// request, idle connections reaped after kAdminIdleTimeoutMs. Anything
// unexpected gets a plain-status response and the connection closed;
// this endpoint is for curl and scrapers on a trusted interface, not
// browsers.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/conn_loop.hpp"
#include "support/metrics.hpp"

namespace distapx::trace {
class TraceSink;
}

namespace distapx::net {

/// A request larger than this (with no blank line yet) gets a 400.
inline constexpr std::size_t kAdminMaxRequestBytes = 8192;
/// An admin connection that makes no progress this long is closed.
inline constexpr std::uint32_t kAdminIdleTimeoutMs = 10'000;

/// Everything admin_handle_request needs beyond the registry. The serving
/// loop's owner builds one; string-level tests build their own.
struct AdminContext {
  const trace::TraceSink* sink = nullptr;
  /// Static "key: value" facts for /statusz, rendered in order before
  /// the process durability level.
  std::vector<std::pair<std::string, std::string>> status_fields;
  std::chrono::steady_clock::time_point start_time{};  ///< for uptime
};

/// Routing + response formatting, kept apart from the loop so the tests
/// can drive it with plain strings. `request` is everything up to
/// (not necessarily including) the blank line; returns the full HTTP
/// response bytes.
std::string admin_handle_request(std::string_view request,
                                 const metrics::Registry& registry,
                                 const AdminContext& ctx);

/// The response owed to the bytes an admin connection has sent so far:
/// nullopt while the request is incomplete (no blank line yet, within
/// kAdminMaxRequestBytes), a 400 once it outgrows the cap, otherwise
/// admin_handle_request's answer.
std::optional<std::string> admin_reply(std::string_view received,
                                       const metrics::Registry& registry,
                                       const AdminContext& ctx);

/// The admin listener's handler: one admin_reply per connection, then
/// close. It is always done(), so admin connections never hold a drain
/// open, and it moves no series of the framed protocol.
class AdminHandler final : public ConnLoop::Handler {
 public:
  /// `registry` and ctx.sink must outlive the loop's run().
  AdminHandler(const metrics::Registry& registry, AdminContext ctx)
      : registry_(registry), ctx_(std::move(ctx)) {}

  /// Adds `listener` to `loop`, served by this handler; returns the
  /// bound endpoint.
  Endpoint listen(ConnLoop& loop, Listener listener);

  std::unique_ptr<ConnLoop::Session> on_open(ConnLoop::Conn& c) override;
  void on_data(ConnLoop::Conn& c, std::string_view bytes) override;
  /// EOF before a whole request: nothing to answer.
  void on_eof(ConnLoop::Conn& c) override { c.close(); }

 private:
  const metrics::Registry& registry_;
  AdminContext ctx_;
};

}  // namespace distapx::net
