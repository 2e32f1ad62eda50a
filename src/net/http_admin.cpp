#include "net/http_admin.hpp"

#include <chrono>
#include <cstdio>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "service/result_cache.hpp"
#include "support/fsutil.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace distapx::net {

namespace {

/// The bytes an admin connection has sent so far.
struct AdminSession final : ConnLoop::Session {
  std::string request;
};

std::string http_response(int status, const char* reason,
                          std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.0 " + std::to_string(status) + ' ' + reason +
                    "\r\nContent-Type: " + std::string(content_type) +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string plain(int status, const char* reason, std::string_view body) {
  return http_response(status, reason, "text/plain; charset=utf-8", body);
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// The /statusz page: identity and configuration a human reaches for
/// first during an incident, ahead of any metric math.
std::string render_statusz(const metrics::Snapshot& snap,
                           const AdminContext& ctx) {
  std::string out = "distapx server status\n\n";
  out += "build: " __VERSION__ "\n";
  out += "engine_version: " + std::to_string(service::kEngineVersion) + '\n';
  out += "protocol_version: " + std::to_string(kProtocolVersion) + '\n';
  out += "wire_version: " + std::to_string(kWireVersion) + '\n';
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - ctx.start_time);
  out += "uptime_seconds: " +
         std::to_string(uptime.count() > 0 ? uptime.count() : 0) + '\n';
  for (const auto& [key, value] : ctx.status_fields) {
    out += key + ": " + value + '\n';
  }
  const bool synced = fsutil::durability() == fsutil::Durability::kFull;
  out += std::string("durability: ") + (synced ? "full\n" : "none\n");
  out += '\n';
  const auto gauge_line = [&](const char* name) {
    out += std::string(name) + ": " +
           std::to_string(snap.gauge_or(name)) + '\n';
  };
  gauge_line("ready");
  gauge_line("draining");
  gauge_line("connections_open");
  gauge_line("queue_depth");
  out += '\n';
  out += "process_cpu_seconds_total: " +
         format_double(snap.float_or("process_cpu_seconds_total")) + '\n';
  gauge_line("process_max_rss_bytes");
  gauge_line("process_minor_faults_total");
  gauge_line("process_major_faults_total");
  gauge_line("process_open_fds");
  if (ctx.sink != nullptr) {
    out += "\ntraces_published: " +
           std::to_string(ctx.sink->published_total()) + '\n';
  }
  return out;
}

/// The /vars page: every metric as one "name value" line — counters and
/// gauges verbatim, histograms expanded into count/sum and quantiles,
/// both cumulative and over the recent sampling windows.
std::string render_vars(const metrics::Snapshot& snap) {
  std::string out;
  for (const auto& c : snap.counters) {
    out += c.name + ' ' + std::to_string(c.value) + '\n';
  }
  for (const auto& g : snap.gauges) {
    out += g.name + ' ' + std::to_string(g.value) + '\n';
  }
  for (const auto& f : snap.floats) {
    out += f.name + ' ' + format_double(f.value) + '\n';
  }
  for (const auto& h : snap.histograms) {
    out += h.name + "_count " + std::to_string(h.hist.count) + '\n';
    out += h.name + "_sum " + format_double(h.hist.sum) + '\n';
    out += h.name + "_p50 " + format_double(h.hist.quantile(0.50)) + '\n';
    out += h.name + "_p95 " + format_double(h.hist.quantile(0.95)) + '\n';
    out += h.name + "_p99 " + format_double(h.hist.quantile(0.99)) + '\n';
    out += h.name + "_recent_count " + std::to_string(h.recent.count) + '\n';
    out +=
        h.name + "_recent_p50 " + format_double(h.recent.quantile(0.50)) + '\n';
    out +=
        h.name + "_recent_p95 " + format_double(h.recent.quantile(0.95)) + '\n';
    out +=
        h.name + "_recent_p99 " + format_double(h.recent.quantile(0.99)) + '\n';
  }
  return out;
}

}  // namespace

std::string admin_handle_request(std::string_view request,
                                 const metrics::Registry& registry,
                                 const AdminContext& ctx) {
  // Request line: METHOD SP TARGET SP VERSION. Only the first line
  // matters; headers are accepted and ignored.
  const std::size_t eol = request.find("\r\n");
  const std::string_view line =
      eol == std::string_view::npos ? request : request.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    return plain(400, "Bad Request", "bad request\n");
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  const std::string_view method = line.substr(0, sp1);
  std::string_view target =
      sp2 == std::string_view::npos
          ? line.substr(sp1 + 1)
          : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    return plain(405, "Method Not Allowed", "method not allowed\n");
  }
  // Strip any query string; the endpoints take no parameters.
  const std::size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) target = target.substr(0, qmark);

  if (target == "/metrics") {
    return http_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         metrics::render_prometheus(registry.snapshot()));
  }
  if (target == "/healthz") {
    const metrics::Snapshot snap = registry.snapshot();
    if (snap.gauge_or("draining") != 0) {
      return plain(503, "Service Unavailable", "draining\n");
    }
    if (snap.gauge_or("ready") == 0) {
      return plain(503, "Service Unavailable", "starting\n");
    }
    return plain(200, "OK", "ok\n");
  }
  if (target == "/statusz") {
    return plain(200, "OK", render_statusz(registry.snapshot(), ctx));
  }
  if (target == "/vars") {
    return plain(200, "OK", render_vars(registry.snapshot()));
  }
  if (target == "/tracez") {
    if (ctx.sink == nullptr) {
      return plain(200, "OK", "tracing sink not attached\n");
    }
    return plain(200, "OK", trace::render_tracez(*ctx.sink));
  }
  return plain(404, "Not Found", "not found\n");
}

std::optional<std::string> admin_reply(std::string_view received,
                                       const metrics::Registry& registry,
                                       const AdminContext& ctx) {
  if (received.size() > kAdminMaxRequestBytes) {
    return plain(400, "Bad Request", "request too large\n");
  }
  if (received.find("\r\n\r\n") == std::string_view::npos &&
      received.find("\n\n") == std::string_view::npos) {
    return std::nullopt;
  }
  return admin_handle_request(received, registry, ctx);
}

Endpoint AdminHandler::listen(ConnLoop& loop, Listener listener) {
  Endpoint ep = listener.endpoint();
  loop.listen(std::move(listener), *this, kAdminIdleTimeoutMs);
  logx::info("admin_listening", {{"endpoint", ep.to_string()}});
  return ep;
}

std::unique_ptr<ConnLoop::Session> AdminHandler::on_open(ConnLoop::Conn& c) {
  c.mid_request = true;  // a request is owed from the first moment
  return std::make_unique<AdminSession>();
}

void AdminHandler::on_data(ConnLoop::Conn& c, std::string_view bytes) {
  std::string& request = static_cast<AdminSession&>(*c.session).request;
  request.append(bytes);
  if (auto reply = admin_reply(request, registry_, ctx_)) {
    c.out += *reply;
    c.close();  // HTTP/1.0: one response, then close
  }
}

}  // namespace distapx::net
