// perfbench_harness: one timed window of one benchmark workload, measured
// in a process of its own.
//
//   perfbench_harness WORKLOAD --dir DIR --seconds S [--min-requests N]
//                     [--setups K] [--traced] [--trace-out FILE]
//   perfbench_harness selftest
//
// WORKLOAD is batch-sweep or serve-warm. run.py writes the job files into
// DIR before the harness starts:
//
//   batch.job       batch-sweep: the batch one serve() pass runs
//   probe.job       batch-sweep: one seed per job, for the socket probe
//   pool/NNNN.job   serve-warm: the pool each client cycles through
//
// The harness only calls the public API of the library under src/. It
// sets the workload up --setups times (the median is setup_s), keeps the
// last set-up, measures one window of at least --seconds, and then checks
// every output it received (the correctness gate, untimed):
//
//   batch-sweep  every pass renders byte-identical to pass 1;
//   serve-warm   every RESULT equals an in-process recompute of the same
//                job file through an uncached BatchServer, rendered with
//                render_result, byte for byte (see gate_matches), and
//                the window computed no run (every row is a cache hit).
//
// With --traced the window runs with the library's tracing on (the
// BatchServer collector or the socket server's TraceSink), and afterwards
// the harness times each layer's public calls on the workload's own
// inputs (graph generation, parse, resolve, serve, render, frame codec,
// changelog append, cache lookup/store, direct Network::run per seed,
// ping). Direct runs are checked with is_independent_set / is_matching and
// against the served RunRows.
//
// Output: one JSON object on stdout with the raw measurements (sample
// lists, counters, the simulated-statistics digest); run.py reduces them
// to the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/algos.hpp"
#include "graph/genspec.hpp"
#include "matching/weighted_2eps.hpp"
#include "maxis/layered_maxis.hpp"
#include "mis/ghaffari_nmis.hpp"
#include "mis/luby.hpp"
#include "mis/mis.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/batch_server.hpp"
#include "service/job_spec.hpp"
#include "service/report_sink.hpp"
#include "service/result_cache.hpp"
#include "service/socket_server.hpp"
#include "sim/network.hpp"
#include "support/changelog.hpp"
#include "support/fingerprint.hpp"
#include "support/fsutil.hpp"
#include "support/metrics.hpp"
#include "support/random.hpp"
#include "support/trace.hpp"

namespace fs = std::filesystem;
using namespace distapx;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kWorkers = 2;  // batch-sweep pool; serve-warm lanes
constexpr unsigned kClients = 2;  // closed-loop clients on serve-warm
constexpr int kPings = 200;
/// Direct Network::run checks per job (the first seeds of its range).
constexpr std::uint32_t kDirectSeedsPerJob = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<service::JobSpec> parse_text(const std::string& text) {
  std::istringstream is(text);
  return service::parse_job_file(is);
}

std::uint64_t runs_in(const std::vector<service::JobSpec>& specs) {
  std::uint64_t n = 0;
  for (const auto& s : specs) n += s.num_seeds;
  return n;
}

// ---- JSON output ------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key) + ": " + json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, json_string(v));
  }
  JsonObject& nums(std::string_view key, const std::vector<double>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) a += ", ";
      a += json_number(v[i]);
    }
    return raw(key, a + "]");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- what one window reports ------------------------------------------

/// Summed simulated statistics of a fixed set of RunRows plus a fingerprint
/// of their runs CSV: a host-only change must leave all of it unchanged.
struct Digest {
  std::uint64_t runs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint32_t max_edge_bits = 0;
  std::int64_t objective = 0;
  Fingerprinter csv;

  void add(const service::BatchResult& r, const std::string& runs_csv) {
    for (const auto& job : r.jobs) {
      for (const auto& row : job.rows) {
        ++runs;
        rounds += row.rounds;
        messages += row.messages;
        bits += row.total_bits;
        max_edge_bits = std::max(max_edge_bits, row.max_edge_bits);
        objective += row.objective;
      }
    }
    csv.add_string(runs_csv);
  }

  [[nodiscard]] std::string json() const {
    return JsonObject()
        .num("runs", static_cast<double>(runs))
        .num("rounds", static_cast<double>(rounds))
        .num("messages", static_cast<double>(messages))
        .num("bits", static_cast<double>(bits))
        .num("max_edge_bits", max_edge_bits)
        .num("objective", static_cast<double>(objective))
        .str("runs_csv", csv.digest().hex())
        .text();
  }
};

struct Report {
  std::vector<double> setup_s;
  double window_s = 0;
  double cpu_s = 0;
  std::uint64_t requests = 0;  ///< SUBMITs (serve-warm) or passes (batch)
  std::uint64_t runs = 0;      ///< RunRows delivered
  std::uint64_t messages = 0;  ///< simulated messages in delivered rows
  std::uint64_t computed_runs = 0;
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  Digest digest;
  /// Traced run only: per-layer samples and exact per-window values.
  std::map<std::string, std::pair<std::string, std::vector<double>>> samples;
  std::map<std::string, std::pair<std::string, double>> values;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  void sample(const std::string& name, const std::string& unit, double v) {
    auto& s = samples[name];
    s.first = unit;
    s.second.push_back(v);
  }
  void value(const std::string& name, const std::string& unit, double v) {
    values[name] = {unit, v};
  }

  [[nodiscard]] std::string json() const {
    JsonObject o;
    o.nums("setup_s", setup_s)
        .num("window_s", window_s)
        .num("cpu_s", cpu_s)
        .num("requests", static_cast<double>(requests))
        .num("runs", static_cast<double>(runs))
        .num("messages", static_cast<double>(messages))
        .num("computed_runs", static_cast<double>(computed_runs))
        .nums("latency_ms", latency_ms)
        .num("peak_rss_mb", peak_rss_mb())
        .num("attempted", static_cast<double>(attempted))
        .num("failed", static_cast<double>(failed))
        .raw("digest", digest.json());
    std::string errs = "[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      errs += (i ? ", " : "") + json_string(errors[i]);
    }
    o.raw("errors", errs + "]");
    JsonObject layers;
    for (const auto& [name, s] : samples) {
      layers.raw(name, JsonObject()
                           .str("unit", s.first)
                           .nums("samples", s.second)
                           .text());
    }
    for (const auto& [name, v] : values) {
      layers.raw(name, JsonObject()
                           .str("unit", v.first)
                           .num("value", v.second)
                           .text());
    }
    o.raw("layers", layers.text());
    return o.text();
  }
};

// ---- the correctness gate ----------------------------------------------

/// The report lines that are pure functions of the job file. The rest of
/// report_txt (job label, hit rate, wall seconds) is operational telemetry,
/// outside the byte-identity contract by design (service/report_sink.hpp).
std::string report_invariants(const std::string& report) {
  std::string out;
  std::istringstream is(report);
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("jobs ", 0) == 0 || line.rfind("runs ", 0) == 0) {
      out += line + "\n";
    }
  }
  return out;
}

/// True iff two RESULTs for the same job file agree on everything the
/// determinism contract covers: summary and runs CSV byte for byte, and
/// the report's job and run counts.
bool same_result(const net::ResultPayload& want,
                 const net::ResultPayload& got) {
  return got.summary_csv == want.summary_csv &&
         got.runs_csv == want.runs_csv &&
         report_invariants(got.report_txt) ==
             report_invariants(want.report_txt);
}

net::ResultPayload as_payload(const service::RenderedResult& r) {
  return {r.summary_csv, r.runs_csv, r.report_txt};
}

/// The gate: a served RESULT against the in-process rendering of its file.
bool gate_matches(const service::RenderedResult& want,
                  const net::ResultPayload& got) {
  return same_result(as_payload(want), got);
}

struct Recomputed {
  service::BatchResult result;
  service::RenderedResult rendered;
};

/// The gate's reference: the job file run through an uncached BatchServer.
Recomputed recompute(const std::string& text) {
  service::BatchServer bs(service::BatchOptions{.threads = kWorkers});
  bs.submit_all(parse_text(text));
  Recomputed r;
  r.result = bs.serve();
  r.rendered = service::render_result("gate", r.result);
  return r;
}

// ---- layer probes (traced run only) ------------------------------------

bool is_direct_algo(const std::string& a) {
  return a == "luby" || a == "maxis-alg2" || a == "nmis" || a == "mwm-2eps";
}

/// True iff two graphs have the same nodes and the same edges in the same
/// order.
bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    if (a.endpoints(e) != b.endpoints(e)) return false;
  }
  return true;
}

/// One Network::run (or algorithm entry) per seed, outside any server,
/// checked for validity and against the served row.
void probe_direct_runs(const service::ResolvedJob& job,
                       const service::JobResult& served, Report& rep) {
  const auto& spec = job.spec;
  const std::uint32_t seeds = std::min(spec.num_seeds, kDirectSeedsPerJob);
  std::optional<sim::Network> net;
  if (spec.algorithm != "mwm-2eps") net.emplace(job.graph);
  for (std::uint32_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = spec.seed_at(i);
    sim::RunMetrics m;
    std::uint64_t size = 0;
    bool valid = false;
    double ms = 0;
    if (spec.algorithm == "mwm-2eps") {
      Weighted2EpsParams p;
      p.epsilon = spec.eps;
      const auto t0 = Clock::now();
      const auto r =
          run_weighted_2eps_matching(job.graph, job.edge_weights, seed, p);
      ms = seconds_since(t0) * 1e3;
      m = r.metrics;
      size = r.matching.size();
      valid = is_matching(job.graph, r.matching);
    } else {
      sim::ProgramFactory factory;
      if (spec.algorithm == "luby") {
        factory = make_luby_program(job.graph);
      } else if (spec.algorithm == "nmis") {
        factory = make_nmis_program(job.graph, NmisParams{});
      } else {
        const auto& w = job.node_weights;
        const Weight max_w =
            w.empty() ? 1 : *std::max_element(w.begin(), w.end());
        factory = make_layered_maxis_program(job.graph, w, max_w);
      }
      sim::RunOptions o;
      o.policy = spec.policy;
      o.seed = seed;
      o.max_rounds = spec.max_rounds;
      const auto t0 = Clock::now();
      const auto r = net->run(factory, o);
      ms = seconds_since(t0) * 1e3;
      m = r.metrics;
      std::vector<NodeId> is;
      for (NodeId v = 0; v < job.graph.num_nodes(); ++v) {
        if (r.outputs[v] == kOutInIs) is.push_back(v);
      }
      size = is.size();
      valid = is_independent_set(job.graph, is);
    }
    rep.sample("sim.run_ms." + spec.algorithm, "ms", ms);
    if (spec.algorithm == "mwm-2eps") {
      rep.sample("sim.ns_per_round", "ns",
                 ms * 1e6 / std::max<double>(1, m.rounds));
    } else if (spec.algorithm != "nmis") {
      rep.sample("sim.ns_per_msg", "ns",
                 ms * 1e6 / std::max<double>(1, m.messages));
    }
    const service::RunRow& row = served.rows.at(i);
    ++rep.attempted;
    if (!valid || m.rounds != row.rounds || m.messages != row.messages ||
        size != row.solution_size) {
      rep.fail("direct run of " + spec.algorithm + " seed " +
               std::to_string(seed) +
               " disagrees with its RunRow or is not valid");
    }
  }
}

/// Times each layer's public calls on the workload's own job files.
/// `served[i]` is the uncached reference result of texts[i]. serve() is
/// timed here only with `time_serve` (serve-warm, against its own cache);
/// batch-sweep's serve_ms comes from its passes.
struct ProbeOptions {
  int reps = 1;
  service::ResultCache* lookup_cache = nullptr;  ///< lookups run against it
  bool time_serve = false;
};

/// Budget of the store probe's cache: below one entry, so every store
/// writes, syncs and then evicts (the cache write side end to end).
std::uint64_t evict_every_store_budget() {
  return service::entry_file_size() - 1;
}

void probe_layers(const std::vector<std::string>& texts,
                  const std::vector<const Recomputed*>& served,
                  const ProbeOptions& po, Report& rep) {
  Changelog journal("probe-journal");
  metrics::Registry store_registry;
  service::ResultCache store_cache("probe-store", evict_every_store_budget(),
                                   &store_registry);
  std::uint64_t record_no = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_fsyncs = 0;
  for (int rep_i = 0; rep_i < po.reps; ++rep_i) {
    for (std::size_t t = 0; t < texts.size(); ++t) {
      const std::string& text = texts[t];
      auto t0 = Clock::now();
      const auto specs = parse_text(text);
      rep.sample("service.parse_ms", "ms", seconds_since(t0) * 1e3);

      std::vector<service::ResolvedJob> jobs;
      t0 = Clock::now();
      for (const auto& spec : specs) jobs.push_back(service::resolve_job(spec));
      rep.sample("service.resolve_ms", "ms", seconds_since(t0) * 1e3);

      // The graph RNG is derived as resolve_job derives it; the probe's
      // graph is checked against the resolved one, so a change in that
      // derivation fails the run instead of timing other graphs.
      for (const auto& job : jobs) {
        Rng rng(hash_combine(job.spec.graph_seed, 0xc11));
        t0 = Clock::now();
        const Graph g = gen::from_spec(job.spec.gen_spec, rng);
        rep.sample("graph.gen_ms", "ms", seconds_since(t0) * 1e3);
        ++rep.attempted;
        if (!same_graph(g, job.graph)) {
          rep.fail("graph probe of " + job.spec.gen_spec +
                   " differs from the graph resolve_job built");
        }
      }

      const service::BatchResult* result = &served[t]->result;
      service::BatchResult cached;
      if (po.time_serve) {
        service::BatchServer bs(
            service::BatchOptions{.threads = 1, .cache = po.lookup_cache});
        bs.submit_all(specs);
        t0 = Clock::now();
        cached = bs.serve();
        rep.sample("service.serve_ms", "ms", seconds_since(t0) * 1e3);
        result = &cached;
      }

      t0 = Clock::now();
      const auto rendered = service::render_result("probe", *result);
      rep.sample("service.render_ms", "ms", seconds_since(t0) * 1e3);

      const net::ResultPayload payload = as_payload(rendered);
      t0 = Clock::now();
      const std::string frame = net::encode_frame(
          net::FrameType::kResult, net::encode_result(payload));
      net::FrameReader reader(frame.size());
      reader.feed(frame);
      net::Frame decoded_frame;
      net::ResultPayload decoded;
      const bool codec_ok =
          reader.next(decoded_frame) == net::FrameStatus::kFrame &&
          net::decode_result(decoded_frame.payload, decoded);
      rep.sample("net.codec_us", "us", seconds_since(t0) * 1e6);
      rep.sample("net.response_kb", "KB",
                 static_cast<double>(frame.size()) / 1024.0);
      ++rep.attempted;
      if (!codec_ok || decoded != payload) {
        rep.fail("frame codec round trip differs");
      }

      const std::string record =
          "S " + std::to_string(++record_no) + " " + text;
      t0 = Clock::now();
      const bool appended = journal.append(record);
      rep.sample("changelog.append_us", "us", seconds_since(t0) * 1e6);
      if (!appended) rep.fail("changelog append failed");

      for (std::size_t j = 0; j < specs.size(); ++j) {
        const auto& rows = result->jobs.at(j).rows;
        for (std::uint32_t i = 0; i < specs[j].num_seeds; ++i) {
          const Fingerprint key = service::run_fingerprint(
              jobs[j].cache_key_prefix, specs[j].seed_at(i));
          t0 = Clock::now();
          const auto hit = po.lookup_cache->lookup(key);
          rep.sample("cache.lookup_us", "us", seconds_since(t0) * 1e6);
          if (hit && *hit != rows.at(i)) {
            rep.fail("cache lookup returned a different row");
          }
          const std::uint64_t fsyncs0 = fsutil::fsync_total();
          t0 = Clock::now();
          store_cache.store(key, rows.at(i));
          rep.sample("cache.store_us", "us", seconds_since(t0) * 1e6);
          store_fsyncs += fsutil::fsync_total() - fsyncs0;
          ++stores;
        }
      }

      if (rep_i == 0) {
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          if (is_direct_algo(jobs[j].spec.algorithm)) {
            probe_direct_runs(jobs[j], served[t]->result.jobs.at(j), rep);
          }
        }
      }
    }
  }
  const double stored = static_cast<double>(std::max<std::uint64_t>(1, stores));
  const auto evicted = store_registry.snapshot().counter_or(
      "cache_evicted_entries_total");
  rep.value("cache.evictions_per_run", "1/run",
            static_cast<double>(evicted) / stored);
  rep.value("support.fsyncs_per_run", "1/run",
            static_cast<double>(store_fsyncs) / stored);
}

/// Exact sums over the digest's rows (they must not move under a host-only
/// change), as per-layer values.
void report_sim_counts(Report& rep) {
  rep.value("sim.rounds", "count", static_cast<double>(rep.digest.rounds));
  rep.value("sim.messages", "count", static_cast<double>(rep.digest.messages));
  rep.value("sim.bits", "bits", static_cast<double>(rep.digest.bits));
  rep.value("sim.max_edge_bits", "bits", rep.digest.max_edge_bits);
}

void write_traces(const std::vector<trace::Trace>& traces,
                  const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const auto& t : traces) out << trace::render_trace_tree(t) << "\n";
}

// ---- the socket server rig ---------------------------------------------

struct RigConfig {
  unsigned lanes = kWorkers;
  bool cache = true;
  trace::TraceSink* sink = nullptr;
};

/// An in-process SocketServer on a Unix socket, its I/O thread, and the
/// closed-loop clients' connections.
struct Rig {
  metrics::Registry registry;
  std::unique_ptr<service::SocketServer> server;
  std::thread io;
  std::exception_ptr io_error;
  std::vector<net::Client> clients;

  Rig(const RigConfig& cfg, unsigned n_clients) {
    service::SocketServerOptions o;
    o.endpoint = net::parse_endpoint("serve.sock");
    o.threads = 1;
    o.lanes = cfg.lanes;
    if (cfg.cache) o.cache_dir = "cache";
    o.registry = &registry;
    o.trace_sink = cfg.sink;
    server = std::make_unique<service::SocketServer>(o);
    io = std::thread([this] {
      try {
        server->run();
      } catch (...) {
        io_error = std::current_exception();
      }
    });
    for (unsigned c = 0; c < n_clients; ++c) {
      clients.push_back(net::Client::connect_retry(server->endpoint(), 10'000));
      clients.back().ping();
    }
  }

  void stop() {
    if (!io.joinable()) return;
    clients.clear();
    server->request_stop();
    io.join();
    if (io_error) std::rethrow_exception(io_error);
  }

  ~Rig() {
    if (io.joinable()) {
      server->request_stop();
      io.join();
    }
  }
};

void clear_rig_files() {
  for (const char* p : {"cache", "serve.sock"}) {
    fs::remove_all(p);
  }
}

void ping_probe(net::Client& client, Report& rep) {
  for (int i = 0; i < kPings; ++i) {
    const auto t0 = Clock::now();
    client.ping();
    rep.sample("net.ping_us", "us", seconds_since(t0) * 1e6);
  }
}

void queue_wait_samples(const trace::TraceSink& sink, Report& rep,
                        std::vector<trace::Trace>& keep) {
  for (auto& t : sink.recent()) {
    for (const auto& span : t.spans) {
      if (span.name == "queue-wait") {
        rep.sample("service.queue_wait_ms", "ms",
                   static_cast<double>(span.duration_ns(t.duration_ns)) / 1e6);
      }
    }
    keep.push_back(std::move(t));
  }
}

// ---- workloads ---------------------------------------------------------

struct Args {
  std::string workload;
  std::string dir;
  double seconds = 10;
  /// serve-warm: the window also runs until this many SUBMITs completed, so
  /// the latency percentiles have enough samples beyond them.
  std::uint64_t min_requests = 0;
  int setups = 3;
  bool traced = false;
  std::string trace_out;
};

Report batch_sweep(const Args& a) {
  Report rep;
  const std::string text = read_file("batch.job");
  const auto specs = parse_text(text);

  // Traced: every pass's per-unit spans go under one window span (the
  // collector's span cap bounds the memory this keeps).
  std::optional<trace::Collector> collector;
  service::BatchOptions opts{.threads = kWorkers};
  if (a.traced) {
    collector.emplace(1, "batch-sweep");
    opts.trace = &*collector;
    opts.trace_parent = collector->begin("window");
  }
  std::unique_ptr<service::BatchServer> bs;
  for (int k = 0; k < a.setups; ++k) {
    bs.reset();
    const auto t0 = Clock::now();
    bs = std::make_unique<service::BatchServer>(opts);
    bs->submit_all(specs);
    rep.setup_s.push_back(seconds_since(t0));
  }

  std::vector<trace::Trace> traces;
  std::optional<Recomputed> first;
  while (rep.window_s < a.seconds || rep.requests == 0) {
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    service::BatchResult r = bs->serve();
    const double dt = seconds_since(t0);
    rep.cpu_s += process_cpu_seconds() - cpu0;
    rep.window_s += dt;
    rep.latency_ms.push_back(dt * 1e3);
    ++rep.requests;
    rep.runs += r.total_runs;
    rep.computed_runs += r.computed;
    for (const auto& job : r.jobs) {
      for (const auto& row : job.rows) rep.messages += row.messages;
    }

    // Gate (untimed): every pass renders exactly like pass 1.
    service::RenderedResult rendered = service::render_result("batch", r);
    ++rep.attempted;
    if (!first) {
      rep.digest.add(r, rendered.runs_csv);
      first = Recomputed{std::move(r), std::move(rendered)};
    } else if (!gate_matches(first->rendered, as_payload(rendered))) {
      rep.fail("pass " + std::to_string(rep.requests) + " differs from pass 1");
    }
  }

  if (a.traced) {
    traces.push_back(collector->finish());
    for (double ms : rep.latency_ms) rep.sample("service.serve_ms", "ms", ms);
    bs.reset();
    service::ResultCache lookup_cache("probe-lookup");
    probe_layers({text}, {&*first},
                 ProbeOptions{.reps = 3, .lookup_cache = &lookup_cache}, rep);
    const service::CacheStats st = lookup_cache.stats();
    rep.value("cache.hit_ratio", "frac",
              static_cast<double>(st.hits) /
                  std::max<double>(1, st.hits + st.misses));

    // batch-sweep has no socket tier; a one-seed-per-job copy of the batch
    // through a cacheless server gives the transport floor and queue wait.
    trace::TraceSink sink(trace::SinkOptions{.recent_slots = 64});
    clear_rig_files();
    Rig rig(RigConfig{.lanes = 1, .cache = false, .sink = &sink}, 1);
    ping_probe(rig.clients[0], rep);
    const auto out = rig.clients[0].submit(read_file("probe.job"));
    ++rep.attempted;
    if (!out.ok) rep.fail("probe submit failed: " + out.error);
    rig.stop();
    queue_wait_samples(sink, rep, traces);
    report_sim_counts(rep);
    write_traces(traces, a.trace_out);
  }
  return rep;
}

std::vector<std::string> load_pool() {
  std::vector<fs::path> paths;
  for (const auto& e : fs::directory_iterator("pool")) {
    paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& p : paths) texts.push_back(read_file(p));
  if (texts.empty()) throw std::runtime_error("empty job pool");
  return texts;
}

struct Sent {
  std::size_t file = 0;
  double ms = 0;
  bool ok = false;
  bool same_as_first = true;  ///< byte-equal to this client's first reply
  std::string error;
};

/// One client's requests. Only its first RESULT per job file is kept (and
/// gated against the recompute); later ones are compared with it on
/// arrival, so memory does not grow with the request count.
struct ClientLog {
  std::vector<Sent> sent;
  std::map<std::size_t, net::ResultPayload> first;
};

Report serve_warm(const Args& a) {
  Report rep;
  const auto files = load_pool();
  std::vector<std::uint64_t> file_runs;
  for (const auto& f : files) file_runs.push_back(runs_in(parse_text(f)));

  RigConfig cfg;
  std::unique_ptr<trace::TraceSink> sink;
  if (a.traced) {
    sink = std::make_unique<trace::TraceSink>(
        trace::SinkOptions{.recent_slots = 4096, .slot_bytes = 4096});
    cfg.sink = sink.get();
  }

  // The window never writes, and at the default full durability the
  // prefill would time the host disk's fsync latency rather than the code;
  // it runs at durability none until the probes, which restore the default.
  fsutil::set_durability(fsutil::Durability::kNone);
  std::unique_ptr<Rig> rig;
  for (int k = 0; k < a.setups; ++k) {
    if (rig) rig->stop();
    rig.reset();
    clear_rig_files();
    const auto t0 = Clock::now();
    rig = std::make_unique<Rig>(cfg, kClients);
    // Prefill: every pool file once, pipelined over both connections.
    for (std::size_t i = 0; i < files.size(); ++i) {
      rig->clients[i % kClients].send_submit(files[i]);
    }
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto out = rig->clients[i % kClients].recv_submit();
      if (!out.ok) throw std::runtime_error("prefill failed: " + out.error);
    }
    rep.setup_s.push_back(seconds_since(t0));
  }

  const metrics::Snapshot before = rig->registry.snapshot();
  std::vector<ClientLog> logs(kClients);
  std::atomic<std::uint64_t> completed{0};
  std::mutex err_mu;
  std::vector<std::string> client_errors;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(a.seconds);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        std::size_t k = c * files.size() / kClients;
        while (Clock::now() < deadline || completed.load() < a.min_requests) {
          const std::size_t idx = k++ % files.size();
          const auto s0 = Clock::now();
          auto out = rig->clients[c].submit(files[idx]);
          const double ms = seconds_since(s0) * 1e3;
          bool same = true;
          if (out.ok) {
            const auto it = logs[c].first.find(idx);
            if (it == logs[c].first.end()) {
              logs[c].first.emplace(idx, std::move(out.result));
            } else {
              same = same_result(it->second, out.result);
            }
          }
          logs[c].sent.push_back(
              Sent{idx, ms, out.ok, same, std::move(out.error)});
          ++completed;
        }
      } catch (const std::exception& e) {
        std::lock_guard lock(err_mu);
        client_errors.push_back(e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  rep.window_s = seconds_since(t0);
  rep.cpu_s = process_cpu_seconds() - cpu0;
  const metrics::Snapshot after = rig->registry.snapshot();
  auto delta = [&](std::string_view name) {
    return static_cast<double>(after.counter_or(name) -
                               before.counter_or(name));
  };
  rep.computed_runs = static_cast<std::uint64_t>(delta("runs_computed_total"));

  std::vector<trace::Trace> traces;
  if (a.traced) ping_probe(rig->clients[0], rep);
  rig->stop();
  if (a.traced) queue_wait_samples(*sink, rep, traces);

  for (const auto& e : client_errors) {
    ++rep.attempted;
    rep.fail("client: " + e);
  }
  // Every row of the window must come from the prefilled cache: a
  // recompute would time the engine instead of the layers this workload
  // exists for.
  ++rep.attempted;
  if (rep.computed_runs != 0) {
    rep.fail("warm window computed " + std::to_string(rep.computed_runs) +
             " runs instead of serving them from the cache");
  }

  // Gate (untimed): recompute each distinct file once and compare each
  // client's first RESULT for it byte for byte; every later RESULT was
  // already compared with that first one on arrival.
  std::map<std::size_t, Recomputed> expected;
  auto expected_for = [&](std::size_t file) -> const Recomputed& {
    auto it = expected.find(file);
    if (it == expected.end()) {
      it = expected.emplace(file, recompute(files[file])).first;
    }
    return it->second;
  };
  for (const ClientLog& log : logs) {
    std::map<std::size_t, bool> first_ok;
    for (const auto& [file, payload] : log.first) {
      first_ok[file] = gate_matches(expected_for(file).rendered, payload);
    }
    for (const Sent& s : log.sent) {
      ++rep.attempted;
      ++rep.requests;
      rep.latency_ms.push_back(s.ms);
      if (!s.ok) {
        rep.fail("SUBMIT failed: " + s.error);
        continue;
      }
      rep.runs += file_runs[s.file];
      for (const auto& job : expected_for(s.file).result.jobs) {
        for (const auto& row : job.rows) rep.messages += row.messages;
      }
      if (!s.same_as_first || !first_ok[s.file]) {
        rep.fail("RESULT for job file " + std::to_string(s.file) +
                 " differs from the in-process recompute");
      }
    }
  }

  // Digest over the whole pool, whatever the window reached.
  std::vector<const Recomputed*> probe_served;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const Recomputed& r = expected_for(i);
    rep.digest.add(r.result, r.rendered.runs_csv);
    probe_served.push_back(&r);
  }

  fsutil::set_durability(fsutil::Durability::kFull);
  if (a.traced) {
    const double hits = delta("cache_hits_total");
    const double lookups = hits + delta("cache_misses_total");
    rep.value("cache.hit_ratio", "frac", lookups > 0 ? hits / lookups : 0);
    metrics::Registry probe_registry;
    service::ResultCache cache("cache", 0, &probe_registry);
    probe_layers(files, probe_served,
                 ProbeOptions{.reps = 3,
                              .lookup_cache = &cache,
                              .time_serve = true},
                 rep);
    report_sim_counts(rep);
    write_traces(traces, a.trace_out);
  }
  return rep;
}

// ---- selftest ----------------------------------------------------------

/// Checks that the gate accepts an exact response, ignores only the
/// telemetry lines of the report, and rejects any single flipped byte in
/// the determinism-covered sections.
int selftest() {
  const Recomputed want = recompute(
      "gen=gnp:60:0.1 algo=luby seeds=1:3\n"
      "gen=regular:40:4 algo=mwm-2eps seeds=2:2 maxw=64\n");
  int failures = 0;
  auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ++failures;
    }
  };
  const net::ResultPayload exact = as_payload(want.rendered);
  expect(gate_matches(want.rendered, exact), "exact response accepted");

  net::ResultPayload relabeled = exact;
  relabeled.report_txt =
      service::render_result("submit-7", want.result).report_txt;
  expect(gate_matches(want.rendered, relabeled), "report label/timing ignored");

  std::size_t flips = 0;
  for (std::string net::ResultPayload::*section :
       {&net::ResultPayload::summary_csv, &net::ResultPayload::runs_csv}) {
    const std::size_t len = (exact.*section).size();
    for (std::size_t pos : {std::size_t{0}, len / 2, len - 1}) {
      net::ResultPayload flipped = exact;
      (flipped.*section)[pos] ^= 0x01;
      expect(!gate_matches(want.rendered, flipped),
             "flipped byte at " + std::to_string(pos) + " rejected");
      ++flips;
    }
  }
  net::ResultPayload short_runs = exact;
  const auto at = short_runs.report_txt.find("runs 5");
  expect(at != std::string::npos, "report names its run count");
  if (at != std::string::npos) {
    short_runs.report_txt[at + 5] = '4';
    expect(!gate_matches(want.rendered, short_runs),
           "wrong run count rejected");
  }
  std::cout << (failures == 0 ? "selftest ok" : "selftest failed") << " ("
            << flips << " flipped-byte cases)\n";
  return failures == 0 ? 0 : 1;
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--dir") {
      a.dir = next();
    } else if (k == "--seconds") {
      a.seconds = std::stod(next());
    } else if (k == "--min-requests") {
      a.min_requests = std::stoull(next());
    } else if (k == "--setups") {
      a.setups = std::max(1, std::stoi(next()));
    } else if (k == "--traced") {
      a.traced = true;
    } else if (k == "--trace-out") {
      a.trace_out = fs::absolute(next()).string();
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (a.dir.empty()) throw std::runtime_error("--dir is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness {batch-sweep|serve-warm} --dir DIR "
                 "--seconds S [--min-requests N] [--setups K]\n"
                 "         [--traced] [--trace-out F]\n"
                 "       perfbench_harness selftest\n";
    return 2;
  }
  try {
    if (std::string_view(argv[1]) == "selftest") return selftest();
    const Args a = parse_args(argc, argv);
    fs::current_path(a.dir);
    trace::set_enabled(a.traced);
    Report rep;
    if (a.workload == "batch-sweep") {
      rep = batch_sweep(a);
    } else if (a.workload == "serve-warm") {
      rep = serve_warm(a);
    } else {
      std::cerr << "unknown workload " << a.workload << "\n";
      return 2;
    }
    std::cout << rep.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
