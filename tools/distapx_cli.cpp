// distapx_cli — run any of the paper's algorithms on a generated or
// file-loaded graph, printing the solution and the CONGEST accounting;
// or serve a whole mixed-workload job file through the batch server.
//
// Usage: run with no arguments. Each subcommand's usage line is generated
// from the same flag table its parser uses (FlagSet below), so the list
// printed there is the complete, current one. A single run (`distapx_cli
// <algorithm> ...`) builds its graph and weights with resolve_job, exactly
// as a batch job whose gseed is --seed.
//
// Algorithms:
//   luby           Luby's MIS
//   nmis           nearly-maximal IS (Sec 3.1)
//   maxis-alg2     Δ-approx weighted MaxIS, randomized (Thm 2.3)
//   maxis-alg3     Δ-approx weighted MaxIS, deterministic (Sec 2.3)
//   mwm-lr         2-approx MWM, randomized (Thm 2.10)
//   mwm-lr-det     2-approx MWM, deterministic (Thm 2.10)
//   mcm-2eps       (2+ε)-approx MCM (Thm 3.2)
//   mwm-2eps       (2+ε)-approx MWM (App B.1)
//   mcm-1eps       (1+ε)-approx MCM (Thm B.12)
//   proposal       (2+ε)-approx MCM via proposals (App B.4)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/algos.hpp"
#include "graph/genspec.hpp"
#include "net/client.hpp"
#include "net/http_admin.hpp"
#include "net/socket.hpp"
#include "matching/lr_matching.hpp"
#include "matching/lr_matching_det.hpp"
#include "matching/mcm_congest.hpp"
#include "matching/nmm_2eps.hpp"
#include "matching/proposal.hpp"
#include "matching/weighted_2eps.hpp"
#include "maxis/coloring_maxis.hpp"
#include "maxis/layered_maxis.hpp"
#include "mis/ghaffari_nmis.hpp"
#include "mis/luby.hpp"
#include "service/batch_server.hpp"
#include "service/cache_manager.hpp"
#include "service/daemon.hpp"
#include "service/job_spec.hpp"
#include "service/result_cache.hpp"
#include "service/socket_server.hpp"
#include "support/assert.hpp"
#include "support/fsutil.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"
#include "support/procstat.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

using namespace distapx;

namespace {

struct Options {
  std::string algorithm;
  std::string graph_file;
  std::string gen_spec = "gnp:200:0.04";
  std::string out_file;
  std::uint64_t seed = 1;
  double eps = 0.25;
  Weight max_w = 100;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "error: " << msg << "\nrun with no arguments for usage\n";
  std::exit(2);
}

/// Declarative option table: each subcommand registers its flags once —
/// typed target, value placeholder, range — and shares one parse loop,
/// uniform unknown-flag / missing-value / out-of-range diagnostics, and a
/// usage line generated from the same table parse() accepts, so the two
/// can never drift. Positional arguments stay with the subcommand; the
/// table covers everything that starts with "--".
class FlagSet {
 public:
  /// `cmd` names the subcommand in diagnostics ("unknown serve flag");
  /// `positionals` is the head of the generated usage line.
  FlagSet(std::string cmd, std::string positionals)
      : cmd_(std::move(cmd)), positionals_(std::move(positionals)) {}

  /// String-valued flag (paths, addresses, generator specs).
  FlagSet& str(const char* name, const char* arg, std::string* out) {
    return add(name, arg, [out](const std::string&, const std::string& tok) {
      *out = tok;
    });
  }

  /// Non-negative integer flag with an inclusive cap; `min_value` lets a
  /// flag reject 0 without a bespoke check.
  template <typename T>
  FlagSet& uint(const char* name, const char* arg, T* out,
                std::uint64_t max_value = UINT64_MAX,
                std::uint64_t min_value = 0) {
    return add(name, arg,
               [out, max_value, min_value](const std::string& flag,
                                           const std::string& tok) {
                 const auto v = parse_uint_strict(tok, max_value);
                 if (!v) {
                   usage_error(flag + " " + tok +
                               " is not a non-negative integer");
                 }
                 if (*v < min_value) usage_error(flag + " must be positive");
                 *out = static_cast<T>(*v);
               });
  }

  /// Byte-size flag (integer with optional k/m/g suffix). `seen` reports
  /// that the flag appeared, for subcommands where it is mandatory.
  template <typename T>
  FlagSet& size(const char* name, const char* arg, T* out,
                bool* seen = nullptr) {
    return add(name, arg,
               [out, seen](const std::string& flag, const std::string& tok) {
                 const auto v = parse_size_bytes(tok);
                 if (!v) {
                   usage_error(flag + " " + tok +
                               " is not a byte size (integer with optional "
                               "k/m/g suffix)");
                 }
                 *out = static_cast<T>(*v);
                 if (seen != nullptr) *seen = true;
               });
  }

  FlagSet& real(const char* name, const char* arg, double* out) {
    return add(name, arg,
               [out](const std::string& flag, const std::string& tok) {
                 const auto v = parse_double_strict(tok);
                 if (!v) {
                   usage_error(flag + " " + tok + " is not a finite number");
                 }
                 *out = *v;
               });
  }

  /// Valueless flag; writes `value` (so --no-X can clear a default-on
  /// option).
  FlagSet& toggle(const char* name, bool* out, bool value = true) {
    return add(name, "", [out, value](const std::string&, const std::string&) {
      *out = value;
    });
  }

  /// Parses the remaining argv tokens: every token must be a registered
  /// flag (plus its value). Unknown flags die with the generated usage
  /// line so the operator sees what this subcommand does accept.
  void parse(const std::vector<std::string>& args) const {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      const Spec* spec = find(flag);
      if (spec == nullptr) {
        usage_error("unknown " + (cmd_.empty() ? "" : cmd_ + " ") + "flag " +
                    flag + "\nusage: " + usage_line());
      }
      std::string value;
      if (!spec->arg.empty()) {
        if (i + 1 >= args.size()) usage_error("missing value for " + flag);
        value = args[++i];
      }
      spec->apply(flag, value);
    }
  }

  /// "distapx_cli <positionals> [--flag ARG]..." — derived from the table.
  [[nodiscard]] std::string usage_line() const {
    std::string line = "distapx_cli " + positionals_;
    for (const auto& s : specs_) {
      line += " [" + s.name + (s.arg.empty() ? "" : " " + s.arg) + "]";
    }
    return line;
  }

 private:
  struct Spec {
    std::string name;
    std::string arg;  ///< value placeholder; empty = toggle
    std::function<void(const std::string&, const std::string&)> apply;
  };

  FlagSet& add(const char* name, const char* arg,
               std::function<void(const std::string&, const std::string&)> fn) {
    specs_.push_back({name, arg, std::move(fn)});
    return *this;
  }

  [[nodiscard]] const Spec* find(const std::string& flag) const {
    for (const auto& s : specs_) {
      if (s.name == flag) return &s;
    }
    return nullptr;
  }

  std::string cmd_;
  std::string positionals_;
  std::vector<Spec> specs_;
};

/// argv[first..argc) as strings, for FlagSet::parse.
std::vector<std::string> arg_rest(int argc, char** argv, int first) {
  std::vector<std::string> rest;
  for (int i = first; i < argc; ++i) rest.emplace_back(argv[i]);
  return rest;
}

/// --durability for the writing subcommands; empty = keep the default
/// (full). "none" turns every fsync in the publication paths into a
/// no-op — benchmarks and throwaway runs only.
void apply_durability(const std::string& spec) {
  if (spec.empty()) return;
  const auto level = fsutil::parse_durability(spec);
  if (!level) {
    usage_error("--durability " + spec + " is not one of none|full");
  }
  fsutil::set_durability(*level);
}

/// Mirrors the process-wide fsync count into `registry`'s fsync_total
/// counter for this scope (serving loops, cache commands), detaching
/// before the registry dies.
struct FsyncCounterScope {
  explicit FsyncCounterScope(metrics::Registry& registry) {
    fsutil::set_fsync_counter(&registry.counter("fsync_total"));
  }
  ~FsyncCounterScope() { fsutil::set_fsync_counter(nullptr); }
  FsyncCounterScope(const FsyncCounterScope&) = delete;
  FsyncCounterScope& operator=(const FsyncCounterScope&) = delete;
};

/// --log-level for the serving subcommands; empty = keep the default.
void apply_log_level(const std::string& spec) {
  if (spec.empty()) return;
  const auto level = logx::parse_level(spec);
  if (!level) {
    usage_error("--log-level " + spec +
                " is not one of debug|info|warn|error|off");
  }
  logx::set_level(*level);
}

/// `serve spool --admin`: the daemon owns the main thread, so the admin
/// listener runs on a ConnLoop of its own, on one thread. Declare it
/// after the registry and trace sink it reads, so it stops first.
struct SpoolAdmin {
  net::AdminHandler handler;
  net::ConnLoop loop;
  net::Endpoint endpoint;
  std::thread thread;

  SpoolAdmin(const metrics::Registry& registry, net::AdminContext ctx,
             const std::string& addr)
      : handler(registry, std::move(ctx)),
        endpoint(handler.listen(
            loop, net::Listener::open(net::parse_endpoint(addr)))),
        thread([this] {
          try {
            loop.run();
          } catch (const std::exception& e) {
            logx::error("admin_loop_failed", {{"err", e.what()}});
          }
        }) {}
  ~SpoolAdmin() {
    loop.request_stop();
    thread.join();
  }
};

void print_metrics(const sim::RunMetrics& m) {
  std::cout << "  rounds=" << m.rounds << " messages=" << m.messages
            << " total_bits=" << m.total_bits
            << " max_bits/edge/round=" << m.max_edge_bits;
  if (m.bandwidth_cap > 0) std::cout << " (cap " << m.bandwidth_cap << ")";
  std::cout << "\n";
}

/// --out: the solution's node or edge ids, one per line.
template <typename Id>
void write_ids(const std::string& path, const std::vector<Id>& ids) {
  if (path.empty()) return;
  std::ofstream os(path);
  for (const Id id : ids) os << id << '\n';
  std::cout << "  solution written to " << path << "\n";
}

void write_table(const std::string& path, const Table& table, bool json) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) usage_error("cannot write " + path);
  if (json) {
    table.write_json(os);
  } else {
    table.write_csv(os);
  }
  std::cout << "wrote " << path << "\n";
}

struct BatchArgs {
  service::BatchOptions batch_opts;
  std::string csv_file, json_file, runs_file, cache_dir, durability;
  std::uint64_t cache_budget = 0;
  bool quiet = false;
};

FlagSet batch_flags(BatchArgs& a) {
  FlagSet flags("batch", "batch <jobfile>");
  flags.uint("--threads", "N", &a.batch_opts.threads, 1u << 16)
      .str("--cache", "DIR", &a.cache_dir)
      .size("--cache-budget", "SIZE", &a.cache_budget)
      .str("--durability", "none|full", &a.durability)
      .str("--csv", "F", &a.csv_file)
      .str("--json", "F", &a.json_file)
      .str("--runs", "F", &a.runs_file)
      .toggle("--quiet", &a.quiet);
  return flags;
}

/// `distapx_cli batch <jobfile>`: serve a mixed workload through the batch
/// server and emit the per-job summary (and optionally per-run rows).
int run_batch(int argc, char** argv) {
  if (argc < 3) {
    usage_error("batch needs a job file (one key=value job per line)");
  }
  const std::string job_file = argv[2];
  BatchArgs a;
  batch_flags(a).parse(arg_rest(argc, argv, 3));
  apply_durability(a.durability);

  if (a.cache_budget != 0 && a.cache_dir.empty()) {
    usage_error("--cache-budget needs --cache DIR");
  }
  std::optional<service::ResultCache> cache;
  if (!a.cache_dir.empty()) {
    try {
      cache.emplace(a.cache_dir, a.cache_budget);
    } catch (const std::exception& e) {
      usage_error(e.what());
    }
    a.batch_opts.cache = &*cache;
  }

  service::BatchServer server(a.batch_opts);
  try {
    std::istringstream is(service::read_job_file(job_file));
    server.submit_all(service::parse_job_file(is));
  } catch (const std::exception& e) {
    std::cerr << "error: " << job_file << ": " << e.what() << "\n";
    return 2;
  }
  if (server.num_jobs() == 0) {
    std::cerr << "error: " << job_file << " contains no jobs\n";
    return 2;
  }

  service::BatchResult result;
  try {
    result = server.serve();
  } catch (const std::exception& e) {
    // e.g. a CONGEST violation under an enforcing policy mid-batch.
    std::cerr << "error: batch failed: " << e.what() << "\n";
    return 1;
  }
  const Table summary = service::summary_table(result);
  const Table runs = service::runs_table(result);
  if (!a.quiet) {
    summary.print(std::cout);
    std::cout << result.total_runs << " runs over " << result.jobs.size()
              << " jobs on " << result.threads_used << " threads in "
              << Table::fmt(result.wall_seconds, 3) << "s\n";
    if (cache) {
      std::cout << "cache: " << result.cache_hits << " hits, "
                << result.computed << " computed (hit rate "
                << Table::fmt(result.total_runs == 0
                                  ? 0.0
                                  : static_cast<double>(result.cache_hits) /
                                        static_cast<double>(result.total_runs),
                              3)
                << ") in " << a.cache_dir << "\n";
    }
  }
  write_table(a.csv_file, summary, /*json=*/false);
  write_table(a.json_file, summary, /*json=*/true);
  write_table(a.runs_file, runs, /*json=*/false);
  return 0;
}

int run_serve_socket(int argc, char** argv);

struct SpoolArgs {
  service::DaemonOptions opts;
  std::string admin_addr, log_level, durability;
  bool once = false;
};

FlagSet spool_flags(SpoolArgs& a) {
  FlagSet flags("serve", "serve <spool-dir>");
  flags.str("--cache-dir", "DIR", &a.opts.cache_dir)
      .size("--cache-budget", "SIZE", &a.opts.cache_budget)
      .uint("--threads", "N", &a.opts.threads, 1u << 16)
      .uint("--poll-ms", "M", &a.opts.poll_ms, 1u << 24)
      .uint("--max-files", "K", &a.opts.max_files)
      .toggle("--once", &a.once)
      .str("--durability", "none|full", &a.durability)
      .str("--admin", "ADDR", &a.admin_addr)
      .str("--log-level", "LEVEL", &a.log_level)
      .uint("--slow-ms", "M", &a.opts.slow_ms, 1u << 30);
  return flags;
}

/// `distapx_cli serve <spool-dir>`: the long-lived spool-watching daemon.
/// Results land in <spool>/done, quarantined files in <spool>/failed; stop
/// it with SIGINT, `--max-files`, `--once`, or `touch <spool>/stop`.
int run_serve(int argc, char** argv) {
  if (argc < 3) {
    usage_error("serve needs a spool directory or --listen <path|host:port>");
  }
  // The socket server and the spool daemon are alternative front doors to
  // the same serve path; --listen anywhere selects the socket server.
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--listen") return run_serve_socket(argc, argv);
  }
  SpoolArgs a;
  a.opts.spool_dir = argv[2];
  spool_flags(a).parse(arg_rest(argc, argv, 3));
  apply_log_level(a.log_level);
  apply_durability(a.durability);

  // One process registry shared by daemon, cache, and batch servers;
  // declared before the daemon and admin endpoint that borrow it.
  metrics::Registry registry;
  const FsyncCounterScope fsync_scope(registry);
  procstat::install_process_metrics(registry);
  a.opts.registry = &registry;
  // Per-file traces land here; /tracez renders them.
  trace::TraceSink trace_sink;
  a.opts.trace_sink = &trace_sink;
  std::optional<service::Daemon> daemon;
  try {
    daemon.emplace(a.opts);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  std::optional<SpoolAdmin> admin;
  if (!a.admin_addr.empty()) {
    try {
      admin.emplace(
          registry,
          net::AdminContext{
              &trace_sink,
              {{"mode", "spool"},
               {"spool_dir", a.opts.spool_dir},
               {"cache_dir",
                a.opts.cache_dir.empty() ? "(none)" : a.opts.cache_dir}},
              std::chrono::steady_clock::now()},
          a.admin_addr);
    } catch (const std::exception& e) {
      usage_error(e.what());
    }
    // The line CI scrapes for the ephemeral port.
    std::cout << "admin on " << admin->endpoint.to_string() << "\n"
              << std::flush;
  }
  std::cout << "serving spool " << a.opts.spool_dir
            << (a.opts.cache_dir.empty()
                    ? std::string(" (no cache)")
                    : " (cache " + a.opts.cache_dir + ")")
            << (a.once ? ", single drain\n" : "\n");

  const auto reports = a.once ? daemon->drain_once() : daemon->run();
  std::uint64_t failed = 0;
  for (const auto& r : reports) {
    if (r.resumed) {
      // Published by a crashed predecessor; this run only finished the
      // spool move (the crash-recovery e2e greps for this line).
      std::cout << r.name << ": resumed (already published)\n";
    } else if (r.ok) {
      std::cout << r.name << ": " << r.runs << " runs, " << r.cache_hits
                << " cached, " << r.computed << " computed (hit rate "
                << Table::fmt(r.hit_rate(), 3) << ") in "
                << Table::fmt(r.wall_seconds, 3) << "s\n";
    } else {
      ++failed;
      std::cout << r.name << ": QUARANTINED: " << r.error << "\n";
    }
  }
  std::cout << reports.size() << " job file(s) served, " << failed
            << " quarantined\n";
  return failed == 0 ? 0 : 1;
}

std::atomic<service::SocketServer*> g_socket_server{nullptr};

extern "C" void handle_stop_signal(int) {
  // request_stop is async-signal-safe (atomic store + one pipe write).
  service::SocketServer* server = g_socket_server.load();
  if (server != nullptr) server->request_stop();
}

struct ListenArgs {
  service::SocketServerOptions opts;
  std::string admin_addr, log_level, durability;
};

FlagSet listen_flags(ListenArgs& a) {
  FlagSet flags("serve --listen", "serve --listen <path|host:port>");
  flags.str("--cache-dir", "DIR", &a.opts.cache_dir)
      .size("--cache-budget", "SIZE", &a.opts.cache_budget)
      .str("--journal", "PATH", &a.opts.journal_path)
      .uint("--threads", "N", &a.opts.threads, 1u << 16)
      .uint("--lanes", "N", &a.opts.lanes, 1u << 10)
      .uint("--max-requests", "K", &a.opts.max_requests)
      .uint("--idle-timeout-ms", "M", &a.opts.idle_timeout_ms, 1u << 30)
      .size("--max-frame", "SIZE", &a.opts.max_frame_bytes)
      .toggle("--no-remote-shutdown", &a.opts.allow_remote_shutdown, false)
      .str("--durability", "none|full", &a.durability)
      .str("--admin", "ADDR", &a.admin_addr)
      .str("--log-level", "LEVEL", &a.log_level)
      .uint("--slow-ms", "M", &a.opts.slow_ms, 1u << 30);
  return flags;
}

/// `distapx_cli serve --listen <addr>`: the framed socket server. Same
/// serve path as the spool daemon (cache-backed BatchServer), but job
/// files arrive in SUBMIT frames and results return in RESULT frames.
/// Stop with SIGINT/SIGTERM (graceful drain), `--max-requests`, or a
/// client's SHUTDOWN frame.
int run_serve_socket(int argc, char** argv) {
  ListenArgs a;
  std::string listen_addr;
  // --listen is the mode selector, not an option of the mode: pull it
  // (and its value) out first, then hand the rest to the table.
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--listen") {
      if (i + 1 >= argc) usage_error("missing value for --listen");
      listen_addr = argv[++i];
    } else {
      rest.emplace_back(argv[i]);
    }
  }
  listen_flags(a).parse(rest);
  apply_log_level(a.log_level);
  apply_durability(a.durability);

  // One process registry shared by the server, its cache, and its batch
  // servers; the admin endpoint scrapes all of it from one page.
  metrics::Registry registry;
  const FsyncCounterScope fsync_scope(registry);
  procstat::install_process_metrics(registry);
  a.opts.registry = &registry;
  // Per-SUBMIT traces land here; /tracez renders them. Declared before
  // the server so it outlives run().
  trace::TraceSink trace_sink;
  a.opts.trace_sink = &trace_sink;
  std::optional<service::SocketServer> server;
  try {
    a.opts.endpoint = net::parse_endpoint(listen_addr);
    if (!a.admin_addr.empty()) {
      a.opts.admin_endpoint = net::parse_endpoint(a.admin_addr);
    }
    server.emplace(std::move(a.opts));
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  if (server->admin_endpoint()) {
    std::cout << "admin on " << server->admin_endpoint()->to_string() << "\n"
              << std::flush;
  }
  g_socket_server.store(&*server);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::cout << "listening on " << server->endpoint().to_string()
            << (server->options().cache_dir.empty()
                    ? std::string(" (no cache)")
                    : " (cache " + server->options().cache_dir + ")")
            << "\n"
            << std::flush;
  server->run();
  // Restore default dispositions before the server object dies; a signal
  // between these lines still sees a live pointer (run() has returned,
  // so request_stop on it is a harmless no-op).
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_socket_server.store(nullptr);
  // The final counters: the same text a STATS frame carries.
  std::cout << server->stats_text();
  // Recent-window latency quantiles (last ~1-2 min of the run) next to
  // the lifetime counters, from the same registry the admin page reads.
  for (const auto& h : registry.snapshot().histograms) {
    if (h.recent.count == 0) continue;
    std::cout << h.name << " recent_p50=" << Table::fmt(h.recent.quantile(0.5), 3)
              << " recent_p95=" << Table::fmt(h.recent.quantile(0.95), 3)
              << " recent_p99=" << Table::fmt(h.recent.quantile(0.99), 3)
              << "\n";
  }
  return 0;
}

void write_text_or_die(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream os(path);
  os << text;
  os.flush();
  if (!os) usage_error("cannot write " + path);
}

struct SubmitArgs {
  std::string summary_file, runs_file, report_file;
  // A freshly exec'd server needs a beat to bind; retrying transient
  // connect failures here removes the "sleep until the socket file
  // appears" dance from every script that starts a server.
  std::uint32_t connect_timeout_ms = 5000;
  bool quiet = false;
  bool want_trace = false;
};

FlagSet submit_flags(SubmitArgs& a) {
  FlagSet flags("submit", "submit <path|host:port> <jobfile>");
  flags.str("--summary", "F", &a.summary_file)
      .str("--runs", "F", &a.runs_file)
      .str("--report", "F", &a.report_file)
      .uint("--connect-timeout-ms", "M", &a.connect_timeout_ms, 1u << 30)
      .toggle("--trace", &a.want_trace)
      .toggle("--quiet", &a.quiet);
  return flags;
}

/// `distapx_cli submit <addr> <jobfile>`: one request over the socket.
/// Also the protocol's swiss-army probe: --ping / --stats / --shutdown.
int run_submit(int argc, char** argv) {
  if (argc < 4) {
    usage_error(
        "submit needs an address and a job file (or --ping / --stats / "
        "--shutdown)");
  }
  const std::string addr = argv[2];
  const std::string job_arg = argv[3];
  SubmitArgs a;
  submit_flags(a).parse(arg_rest(argc, argv, 4));

  try {
    net::Client client = net::Client::connect_retry(net::parse_endpoint(addr),
                                                    a.connect_timeout_ms);
    if (job_arg == "--ping") {
      client.ping();
      if (!a.quiet) std::cout << "pong from " << addr << "\n";
      return 0;
    }
    if (job_arg == "--stats") {
      std::cout << client.stats();
      return 0;
    }
    if (job_arg == "--shutdown") {
      const auto outcome = client.shutdown();
      if (!outcome.ok) {
        std::cerr << "error: " << outcome.error << "\n";
        return 1;
      }
      if (!a.quiet) std::cout << "server draining\n";
      return 0;
    }

    std::ifstream is(job_arg);
    if (!is) usage_error("cannot read job file " + job_arg);
    std::ostringstream job_text;
    job_text << is.rdbuf();
    const auto outcome = a.want_trace ? client.submit_traced(job_text.str())
                                    : client.submit(job_text.str());
    if (!outcome.ok) {
      std::cerr << "error: " << job_arg << ": " << outcome.error << "\n";
      return 1;
    }
    if (!a.quiet) std::cout << outcome.result.report_txt;
    // The server-side span tree (SUBMITTRACE echo) goes to stderr so
    // redirecting stdout still captures exactly the report bytes.
    if (a.want_trace) std::cerr << outcome.trace_txt;
    write_text_or_die(a.summary_file, outcome.result.summary_csv);
    write_text_or_die(a.runs_file, outcome.result.runs_csv);
    write_text_or_die(a.report_file, outcome.result.report_txt);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << addr << ": " << e.what() << "\n";
    return 1;
  }
}

struct LoadgenArgs {
  std::uint64_t clients = 4;
  std::uint64_t repeat = 4;
  std::uint64_t pipeline = 1;
  std::uint32_t connect_timeout_ms = 5000;
  bool quiet = false;
};

FlagSet loadgen_flags(LoadgenArgs& a) {
  FlagSet flags("loadgen", "loadgen <path|host:port> <jobfile>");
  flags.uint("--clients", "K", &a.clients, 4096, 1)
      .uint("--repeat", "R", &a.repeat, 1u << 20, 1)
      .uint("--pipeline", "P", &a.pipeline, 1u << 16, 1)
      .uint("--connect-timeout-ms", "M", &a.connect_timeout_ms, 1u << 30)
      .toggle("--quiet", &a.quiet);
  return flags;
}

/// `distapx_cli loadgen <addr> <jobfile>`: K concurrent clients, R
/// submissions each, over one server. `--pipeline P` keeps up to P
/// SUBMITs in flight per connection (the server answers each connection
/// in submit order). Reports throughput and latency and asserts every
/// response carried bit-identical rows — the wire-level determinism
/// check run under real client concurrency.
int run_loadgen(int argc, char** argv) {
  if (argc < 4) usage_error("loadgen needs an address and a job file");
  const std::string addr = argv[2];
  const std::string job_file = argv[3];
  LoadgenArgs a;
  loadgen_flags(a).parse(arg_rest(argc, argv, 4));

  std::ifstream is(job_file);
  if (!is) usage_error("cannot read job file " + job_file);
  std::ostringstream job_text_os;
  job_text_os << is.rdbuf();
  const std::string job_text = job_text_os.str();
  net::Endpoint endpoint;
  try {
    endpoint = net::parse_endpoint(addr);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }

  std::mutex mu;
  std::vector<double> latencies_ms;  // guarded by mu
  std::string reference_runs;        // guarded by mu; first response's rows
  std::uint64_t errors = 0;          // guarded by mu
  std::uint64_t mismatches = 0;      // guarded by mu

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(a.clients);
  for (std::uint64_t c = 0; c < a.clients; ++c) {
    workers.emplace_back([&] {
      std::uint64_t finished = 0;
      try {
        net::Client client = net::Client::connect_retry(endpoint,
                                                        a.connect_timeout_ms);
        // Sliding pipeline window: keep up to `pipeline` SUBMITs in
        // flight; each response is matched to the oldest outstanding
        // send (per-connection FIFO), so latency covers queueing at the
        // server — the number a real pipelined consumer experiences.
        std::deque<std::chrono::steady_clock::time_point> sent_at;
        std::uint64_t submitted = 0;
        while (finished < a.repeat) {
          while (submitted < a.repeat && submitted - finished < a.pipeline) {
            client.send_submit(job_text);
            sent_at.push_back(std::chrono::steady_clock::now());
            ++submitted;
          }
          const auto outcome = client.recv_submit();
          const double ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - sent_at.front())
                  .count();
          sent_at.pop_front();
          ++finished;
          std::lock_guard lock(mu);
          if (!outcome.ok) {
            ++errors;
            continue;
          }
          latencies_ms.push_back(ms);
          if (reference_runs.empty()) {
            reference_runs = outcome.result.runs_csv;
          } else if (outcome.result.runs_csv != reference_runs) {
            ++mismatches;
          }
        }
      } catch (const std::exception&) {
        // The connection died; only the requests it never completed count
        // (the ones above were already tallied as ok or error).
        std::lock_guard lock(mu);
        errors += a.repeat - finished;
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Summary lat;
  for (const double ms : latencies_ms) lat.add(ms);
  const std::uint64_t ok = latencies_ms.size();
  if (!a.quiet) {
    // percentile() requires a nonempty sample; when every request failed
    // the latency columns have nothing to say.
    const auto pct = [&](double q) {
      return ok == 0 ? std::string("-")
                     : Table::fmt(percentile(latencies_ms, q), 2);
    };
    Table t({"clients", "requests", "ok", "errors", "mismatches", "wall_s",
             "req_per_s", "lat_mean_ms", "lat_p50_ms", "lat_p95_ms",
             "lat_max_ms"});
    t.add_row({Table::fmt(a.clients), Table::fmt(a.clients * a.repeat),
               Table::fmt(ok), Table::fmt(errors), Table::fmt(mismatches),
               Table::fmt(wall, 3),
               Table::fmt(wall > 0 ? static_cast<double>(ok) / wall : 0.0, 1),
               ok == 0 ? "-" : Table::fmt(lat.mean(), 2), pct(0.5), pct(0.95),
               ok == 0 ? "-" : Table::fmt(lat.max(), 2)});
    t.print(std::cout);
    if (mismatches == 0 && ok > 0) {
      std::cout << "all " << ok << " responses carried bit-identical rows\n";
    }
  }
  if (mismatches != 0) {
    std::cerr << "error: " << mismatches
              << " responses differed from the first response's rows\n";
    return 1;
  }
  return errors == 0 ? 0 : 1;
}

constexpr const char* kCacheCommands[] = {
    "stats", "ls", "verify", "gc", "clear", "prewarm", "checkpoint"};

struct CacheArgs {
  std::uint64_t limit = 0;   ///< ls
  bool quarantine = false;   ///< verify
  bool unlink = false;       ///< verify
  std::uint64_t budget = 0;  ///< gc
  bool have_budget = false;  ///< gc
};

/// The flags of one cache command (none for stats/clear/prewarm/
/// checkpoint, so a stray flag there dies with that command's usage).
FlagSet cache_flags(const std::string& command, CacheArgs& a) {
  FlagSet flags("cache " + command, "cache <dir> " + command);
  if (command == "ls") flags.uint("--limit", "N", &a.limit);
  if (command == "verify") {
    flags.toggle("--quarantine", &a.quarantine).toggle("--delete", &a.unlink);
  }
  if (command == "gc") {
    flags.size("--budget", "SIZE", &a.budget, &a.have_budget);
  }
  return flags;
}

/// `distapx_cli cache <dir> <command>`: inspect and repair a result-cache
/// directory. Output is stable `key value` lines (stats/gc) or a table
/// (ls), so CI and scripts can assert on it.
int run_cache(int argc, char** argv) {
  if (argc < 4) {
    usage_error(
        "cache needs a directory and a command: "
        "stats | ls | verify [--quarantine|--delete] | gc --budget SIZE | "
        "clear | prewarm | checkpoint");
  }
  const std::string dir = argv[2];
  const std::string command = argv[3];
  if (std::find(std::begin(kCacheCommands), std::end(kCacheCommands),
                command) == std::end(kCacheCommands)) {
    usage_error("unknown cache command " + command);
  }
  // Flags first: a typo must not create the cache directory.
  CacheArgs a;
  cache_flags(command, a).parse(arg_rest(argc, argv, 4));

  std::optional<service::CacheManager> manager;
  try {
    manager.emplace(dir);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }

  if (command == "stats") {
    // stats() refreshes the walk-derived gauges; the printed numbers then
    // come from the registry snapshot — the same source /metrics reads.
    manager->stats();
    const metrics::Snapshot snap = manager->registry().snapshot();
    std::cout << "entries " << snap.gauge_or("cache_entries") << "\n"
              << "bytes " << snap.gauge_or("cache_bytes") << "\n"
              << "manifest_bytes " << snap.gauge_or("cache_manifest_bytes")
              << "\n"
              << "quarantined " << snap.gauge_or("cache_quarantined") << "\n";
    return 0;
  }

  if (command == "ls") {
    // LRU first: the top of the listing is what gc would evict next.
    const auto entries = manager->entries_lru();
    Table t({"key", "bytes", "last_access"});
    std::uint64_t shown = 0;
    for (const auto& e : entries) {
      if (a.limit != 0 && shown++ >= a.limit) break;
      t.add_row({e.key.hex(), Table::fmt(e.size), Table::fmt(e.last_access)});
    }
    t.print(std::cout);
    std::cout << entries.size() << " entries (least recently used first)\n";
    return 0;
  }

  if (command == "verify") {
    const service::RepairMode mode =
        a.unlink ? service::RepairMode::kDelete
                 : a.quarantine ? service::RepairMode::kQuarantine
                                : service::RepairMode::kReport;
    const auto report = manager->verify(mode);
    for (const auto& f : report.findings) {
      std::cout << "invalid " << f.path << " ("
                << service::entry_status_name(f.status) << ")\n";
    }
    std::cout << "checked " << report.checked << "\n"
              << "ok " << report.ok << "\n"
              << "invalid " << report.invalid << "\n"
              << "quarantined " << report.quarantined << "\n"
              << "deleted " << report.deleted << "\n"
              << "foreign " << report.foreign << "\n";
    return report.invalid == report.quarantined + report.deleted ? 0 : 1;
  }

  if (command == "gc") {
    if (!a.have_budget) usage_error("cache gc needs --budget SIZE");
    const auto report = manager->gc(a.budget);
    std::cout << "evicted_entries " << report.evicted_entries << "\n"
              << "evicted_bytes " << report.evicted_bytes << "\n"
              << "live_entries " << report.live_entries << "\n"
              << "live_bytes " << report.live_bytes << "\n";
    return 0;
  }

  if (command == "clear") {
    std::cout << "removed " << manager->clear() << "\n";
    return 0;
  }

  if (command == "prewarm") {
    // Journal-driven: validates (and page-caches) every entry the replay
    // knows about, without a directory walk.
    const auto report = manager->prewarm();
    std::cout << "checked " << report.checked << "\n"
              << "ok " << report.ok << "\n"
              << "invalid " << report.invalid << "\n"
              << "bytes " << report.bytes << "\n";
    return report.invalid == 0 ? 0 : 1;
  }

  // command == "checkpoint": kCacheCommands is exhaustive.
  manager->checkpoint();
  const auto* journal = manager->journal();
  std::cout << "snapshot_records "
            << (journal ? journal->snapshot_records() : 0) << "\n"
            << "tail_records " << (journal ? journal->tail_records() : 0)
            << "\n";
  return 0;
}

FlagSet run_flags(Options& o) {
  FlagSet flags("", "<algorithm>");
  flags.str("--graph", "FILE", &o.graph_file)
      .str("--gen", "SPEC", &o.gen_spec)
      .uint("--seed", "S", &o.seed)
      .real("--eps", "E", &o.eps)
      .uint("--maxw", "W", &o.max_w, 1u << 30)
      .str("--out", "FILE", &o.out_file);
  return flags;
}

/// The no-argument usage: one line per subcommand, each generated from
/// the same flag table its parser uses, so the two cannot drift.
void print_usage() {
  Options run;
  BatchArgs batch;
  SpoolArgs spool;
  ListenArgs listen;
  SubmitArgs submit;
  LoadgenArgs loadgen;
  CacheArgs cache;
  std::vector<std::string> lines = {
      run_flags(run).usage_line(),
      batch_flags(batch).usage_line(),
      spool_flags(spool).usage_line(),
      listen_flags(listen).usage_line(),
      submit_flags(submit).usage_line(),
      "distapx_cli submit <path|host:port> {--ping | --stats | --shutdown}",
      loadgen_flags(loadgen).usage_line()};
  for (const char* command : kCacheCommands) {
    lines.push_back(cache_flags(command, cache).usage_line());
  }
  const char* lead = "usage: ";
  for (const std::string& line : lines) {
    std::cout << lead << line << "\n";
    lead = "       ";
  }
  std::cout << "algorithms:";
  for (const std::string& name : service::algorithm_names()) {
    std::cout << " " << name;
  }
  std::cout << "\ngen specs: " << gen::spec_usage() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 0;
  }
  if (std::string(argv[1]) == "batch") return run_batch(argc, argv);
  if (std::string(argv[1]) == "serve") return run_serve(argc, argv);
  if (std::string(argv[1]) == "submit") return run_submit(argc, argv);
  if (std::string(argv[1]) == "loadgen") return run_loadgen(argc, argv);
  if (std::string(argv[1]) == "cache") return run_cache(argc, argv);
  Options opt;
  opt.algorithm = argv[1];
  run_flags(opt).parse(arg_rest(argc, argv, 2));

  // The workload of a batch job with gseed = --seed: resolve_job derives
  // the graph and weights, and rejects an unknown algorithm before it
  // generates anything.
  service::JobSpec spec;
  spec.algorithm = opt.algorithm;
  if (opt.graph_file.empty()) {
    spec.gen_spec = opt.gen_spec;
  } else {
    spec.graph_file = opt.graph_file;
  }
  spec.graph_seed = opt.seed;
  spec.max_w = opt.max_w;
  std::optional<service::ResolvedJob> job;
  try {
    job.emplace(service::resolve_job(std::move(spec)));
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  const Graph& g = job->graph;
  const NodeWeights& nw = job->node_weights;
  const EdgeWeights& ew = job->edge_weights;
  std::cout << "graph: n=" << g.num_nodes() << " m=" << g.num_edges()
            << " Δ=" << g.max_degree() << "\n";

  const std::string& a = opt.algorithm;
  try {
  if (a == "luby") {
    const auto r = run_luby_mis(g, opt.seed);
    std::cout << "MIS size " << r.independent_set.size() << "\n";
    print_metrics(r.metrics);
    write_ids(opt.out_file, r.independent_set);
  } else if (a == "nmis") {
    const auto r = run_nmis(g, opt.seed);
    std::cout << "nearly-maximal IS size " << r.independent_set.size()
              << ", undecided " << r.undecided.size() << "\n";
    print_metrics(r.metrics);
    write_ids(opt.out_file, r.independent_set);
  } else if (a == "maxis-alg2") {
    const auto r = run_layered_maxis(g, nw, opt.seed);
    std::cout << "IS size " << r.independent_set.size() << " weight "
              << set_weight(nw, r.independent_set) << "\n";
    print_metrics(r.metrics);
    write_ids(opt.out_file, r.independent_set);
  } else if (a == "maxis-alg3") {
    const auto r =
        run_coloring_maxis(g, nw, ColoringSource::kLinial, opt.seed);
    std::cout << "IS size " << r.independent_set.size() << " weight "
              << set_weight(nw, r.independent_set) << " ("
              << r.num_colors << " colors)\n";
    std::cout << "  coloring:";
    print_metrics(r.coloring_metrics);
    std::cout << "  selection:";
    print_metrics(r.maxis_metrics);
    write_ids(opt.out_file, r.independent_set);
  } else if (a == "mwm-lr") {
    const auto r = run_lr_matching(g, ew, opt.seed);
    std::cout << "matching size " << r.matching.size() << " weight "
              << matching_weight(ew, r.matching) << "\n";
    print_metrics(r.metrics);
    write_ids(opt.out_file, r.matching);
  } else if (a == "mwm-lr-det") {
    const auto r = run_lr_matching_deterministic(g, ew);
    std::cout << "matching size " << r.matching.size() << " weight "
              << matching_weight(ew, r.matching) << " (" << r.num_colors
              << " line colors)\n";
    std::cout << "  coloring:";
    print_metrics(r.coloring_metrics);
    std::cout << "  matching:";
    print_metrics(r.matching_metrics);
    write_ids(opt.out_file, r.matching);
  } else if (a == "mcm-2eps") {
    Nmm2EpsParams p;
    p.epsilon = opt.eps;
    const auto r = run_nmm_2eps_matching(g, opt.seed, p);
    std::cout << "matching size " << r.matching.size() << " ("
              << r.super_rounds << " super-rounds, "
              << r.undecided_edges.size() << " undecided edges)\n";
    print_metrics(r.metrics);
    write_ids(opt.out_file, r.matching);
  } else if (a == "mwm-2eps") {
    Weighted2EpsParams p;
    p.epsilon = opt.eps;
    const auto r = run_weighted_2eps_matching(g, ew, opt.seed, p);
    std::cout << "matching size " << r.matching.size() << " weight "
              << matching_weight(ew, r.matching) << " ("
              << r.rounds_parallel << " parallel rounds)\n";
    write_ids(opt.out_file, r.matching);
  } else if (a == "mcm-1eps") {
    McmCongestParams p;
    p.epsilon = opt.eps;
    const auto r = run_mcm_1eps_congest(g, opt.seed, p);
    std::cout << "matching size " << r.matching.size() << " over "
              << r.stages << " stages (" << r.deactivated.size()
              << " deactivated, ~" << r.rounds << " rounds)\n";
    write_ids(opt.out_file, r.matching);
  } else if (a == "proposal") {
    ProposalParams p;
    p.epsilon = opt.eps;
    const auto r = run_proposal_matching(g, opt.seed, p);
    std::cout << "matching size " << r.matching.size() << "\n";
    print_metrics(r.metrics);
    write_ids(opt.out_file, r.matching);
  } else {
    usage_error("unknown algorithm " + a);
  }
  } catch (const EnsureError& e) {
    // A violated invariant (e.g. a CONGEST cap breach) is a diagnostic,
    // not a crash.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
