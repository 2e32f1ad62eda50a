// Socket serving throughput: the same mixed job file served through the
// three transports that now front the cache-backed BatchServer —
// in-process (`batch`), spool directory (the PR-3 daemon), and the framed
// socket tier — cold and warm, plus socket client-concurrency scaling.
//
// The guarantee under measurement is the determinism contract across
// transports: every serving path returns byte-identical runs CSV for the
// same job file, so the transport choice is purely an ops/latency
// decision. The bench asserts that equality on every single response
// while reporting what each transport costs.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "service/batch_server.hpp"
#include "service/daemon.hpp"
#include "service/job_spec.hpp"
#include "service/report_sink.hpp"
#include "service/result_cache.hpp"
#include "service/socket_server.hpp"
#include "support/assert.hpp"
#include "support/trace.hpp"

namespace distapx {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Mixed IS + matching workload, small enough for a CI smoke run but
/// heterogeneous like examples/jobs_mixed.txt.
const char* kJobFile =
    "gen=gnp:300:0.02   algo=luby       seeds=1:12 name=gnp-luby\n"
    "gen=grid:14:14     algo=mcm-2eps   seeds=1:6  eps=0.25 name=grid-mcm\n"
    "gen=regular:256:6  algo=maxis-alg2 seeds=1:5  maxw=512 name=reg-maxis\n"
    "gen=tree:500       algo=mwm-lr     seeds=1:4  maxw=64  name=tree-mwm\n";
constexpr std::uint64_t kTotalRuns = 12 + 6 + 5 + 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

fs::path scratch_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("distapx-bench-socket-" + tag + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// One in-process serve rendered to the same CSV bytes every transport
/// must reproduce.
std::string serve_in_process(unsigned threads, service::ResultCache* cache,
                             const std::string& job_file = kJobFile) {
  std::istringstream is(job_file);
  service::BatchServer server({threads, cache});
  server.submit_all(service::parse_job_file(is));
  return service::render_result("bench", server.serve()).runs_csv;
}

/// Polls the server's STATS text until `line` shows up (lane execution is
/// asynchronous with respect to the submitting client).
bool wait_for_stats_line(const net::Endpoint& ep, const std::string& line,
                         int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    net::Client client = net::Client::connect(ep);
    if (client.stats().find(line) != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

void transports_cold_vs_warm() {
  const unsigned threads = bench::default_threads();
  bench::banner(
      "E12: one job file, three transports (in-process / spool / socket)",
      "The socket tier returns byte-identical rows to `batch` and the "
      "spool daemon — the transport is an ops choice, not a semantics "
      "choice. Cold = compute + fill cache, warm = all cache hits.");
  std::cout << "4 jobs, " << kTotalRuns << " runs per request, " << threads
            << " worker threads\n\n";

  const std::string reference = serve_in_process(threads, nullptr);
  const int warm_reps = 3;
  Table t({"transport", "cold_s", "warm_s", "warm_req_per_s",
           "cold_over_warm"});

  const auto add_row = [&](const std::string& name, double cold_s,
                           double warm_s) {
    t.add_row({name, Table::fmt(cold_s, 4), Table::fmt(warm_s, 4),
               Table::fmt(1.0 / warm_s, 1), Table::fmt(cold_s / warm_s, 1)});
  };

  // ---- in-process ----------------------------------------------------------
  {
    const fs::path cache_dir = scratch_dir("inproc");
    service::ResultCache cache(cache_dir.string());
    auto t0 = Clock::now();
    DISTAPX_ENSURE(serve_in_process(threads, &cache) == reference);
    const double cold_s = seconds_since(t0);
    double warm_best = 0;
    for (int r = 0; r < warm_reps; ++r) {
      t0 = Clock::now();
      DISTAPX_ENSURE(serve_in_process(threads, &cache) == reference);
      const double s = seconds_since(t0);
      warm_best = r == 0 ? s : std::min(warm_best, s);
    }
    DISTAPX_ENSURE(cache.stats().hits ==
                   static_cast<std::uint64_t>(warm_reps) * kTotalRuns);
    add_row("in-process batch", cold_s, warm_best);
    fs::remove_all(cache_dir);
  }

  // ---- spool daemon --------------------------------------------------------
  {
    const fs::path spool = scratch_dir("spool");
    const fs::path cache_dir = scratch_dir("spool-cache");
    service::DaemonOptions opts;
    opts.spool_dir = spool.string();
    opts.cache_dir = cache_dir.string();
    opts.threads = threads;
    service::Daemon daemon(opts);
    const auto submit_and_drain = [&](const std::string& name) {
      {
        std::ofstream os(spool / (name + ".tmp"));
        os << kJobFile;
      }
      fs::rename(spool / (name + ".tmp"), spool / (name + ".job"));
      const auto t0 = Clock::now();
      const auto reports = daemon.drain_once();
      const double s = seconds_since(t0);
      DISTAPX_ENSURE(reports.size() == 1 && reports[0].ok);
      DISTAPX_ENSURE(slurp(spool / "done" / (name + ".runs.csv")) ==
                     reference);
      return s;
    };
    const double cold_s = submit_and_drain("cold");
    double warm_best = 0;
    for (int r = 0; r < warm_reps; ++r) {
      const double s = submit_and_drain("warm" + std::to_string(r));
      warm_best = r == 0 ? s : std::min(warm_best, s);
    }
    add_row("spool daemon", cold_s, warm_best);
    fs::remove_all(spool);
    fs::remove_all(cache_dir);
  }

  // ---- socket --------------------------------------------------------------
  {
    const fs::path sock_dir = scratch_dir("sock");
    const fs::path cache_dir = scratch_dir("sock-cache");
    fs::create_directories(sock_dir);
    service::SocketServerOptions opts;
    opts.endpoint = net::parse_endpoint((sock_dir / "dx.sock").string());
    opts.threads = threads;
    opts.cache_dir = cache_dir.string();
    service::SocketServer server(std::move(opts));
    std::thread io([&] { (void)server.run(); });
    net::Client client = net::Client::connect(server.endpoint());
    const auto submit_once = [&] {
      const auto t0 = Clock::now();
      const auto outcome = client.submit(kJobFile);
      const double s = seconds_since(t0);
      DISTAPX_ENSURE(outcome.ok);
      DISTAPX_ENSURE(outcome.result.runs_csv == reference);
      return s;
    };
    const double cold_s = submit_once();
    double warm_best = 0;
    for (int r = 0; r < warm_reps; ++r) {
      const double s = submit_once();
      warm_best = r == 0 ? s : std::min(warm_best, s);
    }
    add_row("unix socket", cold_s, warm_best);
    server.request_stop();
    io.join();
    fs::remove_all(sock_dir);
    fs::remove_all(cache_dir);
  }

  t.print(std::cout);
  std::cout << "\n(every response above verified byte-identical to the "
               "in-process reference rows)\n";
}

void socket_client_scaling() {
  const unsigned threads = bench::default_threads();
  bench::banner(
      "E12b: socket serving under client concurrency (warm cache)",
      "K concurrent clients hammer one server over a Unix socket; every "
      "response carries bit-identical rows. The executor lanes run "
      "SUBMITs from different connections concurrently while each "
      "connection still sees its responses in submit order.");

  const fs::path sock_dir = scratch_dir("scale");
  const fs::path cache_dir = scratch_dir("scale-cache");
  fs::create_directories(sock_dir);
  service::SocketServerOptions opts;
  opts.endpoint = net::parse_endpoint((sock_dir / "dx.sock").string());
  opts.threads = threads;
  opts.cache_dir = cache_dir.string();
  service::SocketServer server(std::move(opts));
  std::thread io([&] { (void)server.run(); });

  const std::string reference = serve_in_process(threads, nullptr);
  {
    // Warm the cache once before measuring.
    net::Client client = net::Client::connect(server.endpoint());
    const auto outcome = client.submit(kJobFile);
    DISTAPX_ENSURE(outcome.ok && outcome.result.runs_csv == reference);
  }

  constexpr int kRequestsPerClient = 8;
  Table t({"clients", "requests", "wall_s", "req_per_s"});
  for (const int clients : {1, 2, 4, 8}) {
    std::atomic<int> mismatches{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&] {
        net::Client client = net::Client::connect(server.endpoint());
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const auto outcome = client.submit(kJobFile);
          if (!outcome.ok || outcome.result.runs_csv != reference) {
            ++mismatches;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const double wall = seconds_since(t0);
    DISTAPX_ENSURE(mismatches.load() == 0);
    const int total = clients * kRequestsPerClient;
    t.add_row({Table::fmt(static_cast<std::uint64_t>(clients)),
               Table::fmt(static_cast<std::uint64_t>(total)),
               Table::fmt(wall, 4),
               Table::fmt(static_cast<double>(total) / wall, 1)});
  }
  t.print(std::cout);
  std::cout << "\n(all responses bit-identical across all client counts)\n";

  server.request_stop();
  io.join();
  fs::remove_all(sock_dir);
  fs::remove_all(cache_dir);
}

void socket_lane_scaling() {
  const unsigned hw = std::thread::hardware_concurrency();
  bench::banner(
      "E12b.2: executor lane scaling (cold, compute-bound)",
      "No cache and engine threads pinned to 1, so the executor lanes are "
      "the only parallelism in the server; 4 pipelined clients keep the "
      "shared queue full. Rows stay bit-identical at every lane count.");
  std::cout << "hardware threads: " << hw << "\n\n";

  const std::string reference = serve_in_process(1, nullptr);
  std::vector<unsigned> lane_counts{1, 2};
  if (const unsigned top = std::min(hw, 4u); top > 2) {
    lane_counts.push_back(top);
  }

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 2;
  constexpr int kTotal = kClients * kRequestsPerClient;
  Table t({"lanes", "requests", "wall_s", "req_per_s", "speedup_vs_1"});
  std::vector<double> walls;
  for (const unsigned lanes : lane_counts) {
    const fs::path sock_dir = scratch_dir("lanes" + std::to_string(lanes));
    fs::create_directories(sock_dir);
    service::SocketServerOptions opts;
    opts.endpoint = net::parse_endpoint((sock_dir / "dx.sock").string());
    opts.threads = 1;
    opts.lanes = lanes;
    service::SocketServer server(std::move(opts));
    std::thread io([&] { (void)server.run(); });

    std::atomic<int> mismatches{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      workers.emplace_back([&] {
        net::Client client = net::Client::connect(server.endpoint());
        // Fully pipelined: every request in flight before the first read.
        for (int r = 0; r < kRequestsPerClient; ++r) {
          client.send_submit(kJobFile);
        }
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const auto outcome = client.recv_submit();
          if (!outcome.ok || outcome.result.runs_csv != reference) {
            ++mismatches;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const double wall = seconds_since(t0);
    DISTAPX_ENSURE(mismatches.load() == 0);
    server.request_stop();
    io.join();
    fs::remove_all(sock_dir);

    walls.push_back(wall);
    t.add_row({Table::fmt(static_cast<std::uint64_t>(lanes)),
               Table::fmt(static_cast<std::uint64_t>(kTotal)),
               Table::fmt(wall, 4),
               Table::fmt(static_cast<double>(kTotal) / wall, 1),
               Table::fmt(walls.front() / wall, 2)});
  }
  t.print(std::cout);
  if (hw >= 2) {
    // Monotone improvement is the contract the lanes were built for; on a
    // multi-core box the top lane count must visibly beat one lane.
    DISTAPX_ENSURE(walls.back() <= walls.front() * 0.95);
    std::cout << "\n(max lanes " << Table::fmt(walls.front() / walls.back(), 2)
              << "x faster than 1 lane; all rows bit-identical)\n";
  } else {
    std::cout << "\n(single hardware thread: lane scaling reported, not "
                 "asserted; all rows bit-identical)\n";
  }
}

void socket_long_vs_short_isolation() {
  const unsigned hw = std::thread::hardware_concurrency();
  bench::banner(
      "E12c: short-job latency isolation under a long sweep",
      "One client keeps a long sweep running while another submits a tiny "
      "job. With 1 lane the short job waits out the sweep (head-of-line "
      "blocking); with 2 lanes it overtakes on the free lane.");

  const std::string kShortJob = "gen=path:200 algo=luby seeds=1:4 name=short\n";
  const std::string kLongJob =
      "gen=gnp:3000:0.01 algo=luby seeds=1:10 name=sweep\n";
  const std::string short_ref = serve_in_process(1, nullptr, kShortJob);
  const std::string long_ref = serve_in_process(1, nullptr, kLongJob);

  Table t({"lanes", "solo_ms", "busy_worst_ms", "inflation"});
  for (const unsigned lanes : {1u, 2u}) {
    const fs::path sock_dir = scratch_dir("iso" + std::to_string(lanes));
    fs::create_directories(sock_dir);
    service::SocketServerOptions opts;
    opts.endpoint = net::parse_endpoint((sock_dir / "dx.sock").string());
    opts.threads = 1;
    opts.lanes = lanes;
    service::SocketServer server(std::move(opts));
    std::thread io([&] { (void)server.run(); });
    net::Client short_client = net::Client::connect(server.endpoint());

    const auto short_once = [&] {
      const auto t0 = Clock::now();
      const auto outcome = short_client.submit(kShortJob);
      const double ms = seconds_since(t0) * 1e3;
      DISTAPX_ENSURE(outcome.ok && outcome.result.runs_csv == short_ref);
      return ms;
    };

    // Baseline: the short job on an idle server (best of 5).
    double solo_ms = short_once();
    for (int r = 0; r < 4; ++r) solo_ms = std::min(solo_ms, short_once());

    // Contention: a sweeper keeps exactly one long SUBMIT outstanding —
    // one lane stays busy for the whole measurement window without ever
    // saturating the second lane (which is the short jobs' escape hatch).
    std::atomic<bool> stop{false};
    std::atomic<int> long_bad{0};
    std::thread sweeper([&] {
      net::Client lc = net::Client::connect(server.endpoint());
      do {
        const auto outcome = lc.submit(kLongJob);
        if (!outcome.ok || outcome.result.runs_csv != long_ref) ++long_bad;
      } while (!stop.load());
    });
    DISTAPX_ENSURE(wait_for_stats_line(server.endpoint(), "executing 1"));

    double busy_worst = 0;
    for (int r = 0; r < 8; ++r) busy_worst = std::max(busy_worst, short_once());
    stop.store(true);
    sweeper.join();
    DISTAPX_ENSURE(long_bad.load() == 0);
    server.request_stop();
    io.join();
    fs::remove_all(sock_dir);

    t.add_row({Table::fmt(static_cast<std::uint64_t>(lanes)),
               Table::fmt(solo_ms, 2), Table::fmt(busy_worst, 2),
               Table::fmt(busy_worst / solo_ms, 1)});
    if (hw >= 2 && lanes >= 2) {
      // The regression being guarded: with a free lane, the short job
      // must never wait out the sweep. The ceiling is generous (cache
      // misses, scheduler noise) but far below the sweep's runtime.
      DISTAPX_ENSURE(busy_worst <= std::max(solo_ms * 4.0, solo_ms + 60.0));
    }
  }
  t.print(std::cout);
  std::cout << "\n(short + long responses bit-identical to in-process runs "
               "at both lane counts"
            << (hw >= 2 ? "; 2-lane inflation ceiling asserted" : "")
            << ")\n";
}

void socket_tracing_overhead() {
  const unsigned threads = bench::default_threads();
  bench::banner(
      "E12d: tracing overhead (always-on spans vs DISTAPX_TRACE=off)",
      "The same warm-cache pipelined workload served with per-SUBMIT span "
      "collection + sink publication on, and with the kill switch off (no "
      "collectors at all). Tracing must stay within 3% of the baseline "
      "and never change a result byte — at 1 lane and at 4 lanes.");

  const std::string reference = serve_in_process(threads, nullptr);
  const bool was_enabled = trace::enabled();
  constexpr int kClients = 2;
  constexpr int kPerClient = 12;  // per slice
  // A round is kSlices slices of each mode, interleaved: ~300 ms per mode
  // at 4 lanes, and both modes share the same stretch of background load.
  constexpr int kSlices = 12;
  constexpr int kMaxRounds = 16;  // remeasure until the noise floor clears
  constexpr int kTotal = kClients * kPerClient * kSlices;  // per mode, round

  struct Mode {
    Mode(const char* n, bool on) : name(n), tracing(on) {}
    const char* name;
    bool tracing;
    double best_s = 1e9;
    int slices = 0;
  };

  Table t({"lanes", "tracing", "best_s", "req_per_s", "overhead_pct"});
  for (const unsigned lanes : {1u, 4u}) {
    // One server serves both modes; only the kill switch flips between
    // slices. Two servers would add their own difference (thread
    // placement, cache files) to the one being measured.
    const std::string tag = "trace-" + std::to_string(lanes);
    const fs::path sock_dir = scratch_dir(tag);
    const fs::path cache_dir = scratch_dir(tag + "-cache");
    fs::create_directories(sock_dir);
    trace::TraceSink sink;
    service::SocketServerOptions opts;
    opts.endpoint = net::parse_endpoint((sock_dir / "dx.sock").string());
    opts.threads = threads;
    opts.lanes = lanes;
    opts.cache_dir = cache_dir.string();
    opts.trace_sink = &sink;
    service::SocketServer server(std::move(opts));
    std::thread io([&server] { (void)server.run(); });
    // Warm the cache outside the measurement, untraced.
    trace::set_enabled(false);
    {
      net::Client client = net::Client::connect(server.endpoint());
      const auto outcome = client.submit(kJobFile);
      DISTAPX_ENSURE(outcome.ok && outcome.result.runs_csv == reference);
    }

    const auto one_slice = [&](Mode& m) {
      trace::set_enabled(m.tracing);
      std::atomic<int> mismatches{0};
      const auto t0 = Clock::now();
      std::vector<std::thread> workers;
      workers.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        workers.emplace_back([&] {
          net::Client client = net::Client::connect(server.endpoint());
          for (int r = 0; r < kPerClient; ++r) client.send_submit(kJobFile);
          for (int r = 0; r < kPerClient; ++r) {
            const auto outcome = client.recv_submit();
            if (!outcome.ok || outcome.result.runs_csv != reference) {
              ++mismatches;
            }
          }
        });
      }
      for (auto& w : workers) w.join();
      const double wall = seconds_since(t0);
      DISTAPX_ENSURE(mismatches.load() == 0);
      ++m.slices;
      return wall;
    };

    // Alternate on/off slices (and which goes first) and keep each mode's
    // minimum round: interleaving damps machine drift, min-wall damps
    // one-off scheduler spikes. Stop early once the ratio is inside the
    // tolerance.
    Mode modes[2] = {{"off", false}, {"on", true}};
    double ratio = 1e9;
    for (int round = 0; round < kMaxRounds; ++round) {
      double wall[2] = {0, 0};
      for (int slice = 0; slice < kSlices; ++slice) {
        for (int i = 0; i < 2; ++i) {
          const int m = (slice + i) % 2;
          wall[m] += one_slice(modes[m]);
        }
      }
      for (int m = 0; m < 2; ++m) {
        modes[m].best_s = std::min(modes[m].best_s, wall[m]);
      }
      ratio = modes[1].best_s / modes[0].best_s;
      if (round >= 2 && ratio <= 1.03) break;
    }

    server.request_stop();
    io.join();
    // Off = no collectors anywhere, so off slices published nothing; on =
    // every completed SUBMIT landed in the sink (a trace publishes after
    // its response is flushed, so count only once the server has
    // stopped).
    DISTAPX_ENSURE(sink.published_total() ==
                   static_cast<std::uint64_t>(modes[1].slices) * kClients *
                       kPerClient);
    fs::remove_all(sock_dir);
    fs::remove_all(cache_dir);

    for (const Mode& m : modes) {
      t.add_row({Table::fmt(static_cast<std::uint64_t>(lanes)), m.name,
                 Table::fmt(m.best_s, 4),
                 Table::fmt(static_cast<double>(kTotal) / m.best_s, 1),
                 m.tracing ? Table::fmt((ratio - 1.0) * 100.0, 2) : "-"});
    }
    DISTAPX_ENSURE(ratio <= 1.03);
  }
  trace::set_enabled(was_enabled);
  t.print(std::cout);
  std::cout << "\n(tracing-on within 3% of the kill-switch baseline at both "
               "lane counts; all rows bit-identical with tracing on and "
               "off)\n";
}

}  // namespace
}  // namespace distapx

int main() {
  distapx::transports_cold_vs_warm();
  distapx::socket_client_scaling();
  distapx::socket_lane_scaling();
  distapx::socket_long_vs_short_isolation();
  distapx::socket_tracing_overhead();
  std::cout << "\nbench_socket_serving: all determinism guards passed\n";
  return 0;
}
