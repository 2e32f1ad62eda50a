#include "service/batch_server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <utility>

#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "graph/genspec.hpp"
#include "graph/io.hpp"
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
#include "service/result_cache.hpp"
#include "sim/run_many.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace distapx::service {

namespace {

sim::RunOptions run_opts(const JobSpec& spec, std::uint64_t seed) {
  sim::RunOptions o;
  o.policy = spec.policy;
  o.seed = seed;
  o.max_rounds = spec.max_rounds;
  return o;
}

RunRow row_from(const sim::RunMetrics& m, std::uint64_t seed) {
  RunRow row;
  row.seed = seed;
  row.rounds = m.rounds;
  row.messages = m.messages;
  row.total_bits = m.total_bits;
  row.max_edge_bits = m.max_edge_bits;
  row.completed = m.completed;
  return row;
}

/// Runs a single-program IS algorithm on the worker's leased Network and
/// scores the IS against `score_weights` (nullptr = cardinality).
RunRow run_is_program(const ResolvedJob& job, NetworkLease& lease,
                      std::uint64_t seed, const sim::ProgramFactory& factory,
                      const NodeWeights* score_weights) {
  auto& net = lease.acquire(job.graph);
  const auto r = net.run(factory, run_opts(job.spec, seed));
  RunRow row = row_from(r.metrics, seed);
  for (NodeId v = 0; v < job.graph.num_nodes(); ++v) {
    if (r.outputs[v] == kOutInIs) {
      ++row.solution_size;
      row.objective += score_weights ? (*score_weights)[v] : 1;
    }
  }
  return row;
}

RunRow matching_row(const std::vector<EdgeId>& matching,
                    const EdgeWeights* score_weights, RunRow row) {
  row.solution_size = matching.size();
  row.objective = score_weights
                      ? matching_weight(*score_weights, matching)
                      : static_cast<Weight>(matching.size());
  return row;
}

/// The per-algorithm run adapters. Single-program algorithms reuse the
/// leased Network; multi-phase pipelines run their own internal networks
/// (their internal bandwidth policies match the paper's analysis, so the
/// job's policy applies only to leased runs).
RunRow dispatch(const ResolvedJob& job, NetworkLease& lease,
                std::uint64_t seed) {
  const JobSpec& spec = job.spec;
  const std::string& a = spec.algorithm;
  if (a == "luby") {
    return run_is_program(job, lease, seed, make_luby_program(job.graph),
                          nullptr);
  }
  if (a == "nmis") {
    return run_is_program(job, lease, seed,
                          make_nmis_program(job.graph, NmisParams{}), nullptr);
  }
  if (a == "maxis-alg2") {
    const Weight max_w =
        job.node_weights.empty()
            ? 1
            : *std::max_element(job.node_weights.begin(),
                                job.node_weights.end());
    return run_is_program(
        job, lease, seed,
        make_layered_maxis_program(job.graph, job.node_weights, max_w),
        &job.node_weights);
  }
  if (a == "maxis-alg3") {
    const auto r = run_coloring_maxis(job.graph, job.node_weights,
                                      ColoringSource::kLinial, seed,
                                      spec.max_rounds);
    RunRow row = row_from(r.coloring_metrics, seed);
    row.rounds += r.maxis_metrics.rounds;
    row.messages += r.maxis_metrics.messages;
    row.total_bits += r.maxis_metrics.total_bits;
    row.max_edge_bits = std::max(row.max_edge_bits,
                                 r.maxis_metrics.max_edge_bits);
    row.completed = r.coloring_metrics.completed &&
                    r.maxis_metrics.completed;
    row.solution_size = r.independent_set.size();
    row.objective = set_weight(job.node_weights, r.independent_set);
    return row;
  }
  if (a == "mwm-lr") {
    const auto r = run_lr_matching(job.graph, job.edge_weights, seed);
    return matching_row(r.matching, &job.edge_weights,
                        row_from(r.metrics, seed));
  }
  if (a == "mwm-lr-det") {
    const auto r = run_lr_matching_deterministic(job.graph, job.edge_weights);
    RunRow row = row_from(r.coloring_metrics, seed);
    row.rounds += r.matching_metrics.rounds;
    row.messages += r.matching_metrics.messages;
    row.total_bits += r.matching_metrics.total_bits;
    row.max_edge_bits = std::max(row.max_edge_bits,
                                 r.matching_metrics.max_edge_bits);
    row.completed = r.coloring_metrics.completed &&
                    r.matching_metrics.completed;
    return matching_row(r.matching, &job.edge_weights, row);
  }
  if (a == "mcm-2eps") {
    Nmm2EpsParams p;
    p.epsilon = spec.eps;
    const auto r = run_nmm_2eps_matching(job.graph, seed, p);
    return matching_row(r.matching, nullptr, row_from(r.metrics, seed));
  }
  if (a == "mwm-2eps") {
    Weighted2EpsParams p;
    p.epsilon = spec.eps;
    const auto r =
        run_weighted_2eps_matching(job.graph, job.edge_weights, seed, p);
    return matching_row(r.matching, &job.edge_weights,
                        row_from(r.metrics, seed));
  }
  if (a == "mcm-1eps") {
    McmCongestParams p;
    p.epsilon = spec.eps;
    const auto r = run_mcm_1eps_congest(job.graph, seed, p);
    RunRow row;
    row.seed = seed;
    row.rounds = r.rounds;
    row.completed = true;  // the stage budget always terminates
    return matching_row(r.matching, nullptr, row);
  }
  if (a == "proposal") {
    ProposalParams p;
    p.epsilon = spec.eps;
    const auto r = run_proposal_matching(job.graph, seed, p);
    return matching_row(r.matching, nullptr, row_from(r.metrics, seed));
  }
  throw JobError("unknown algorithm \"" + a + "\"");
}

}  // namespace

ResolvedJob resolve_job(JobSpec spec) {
  // Validate before materializing anything: a typo'd algorithm must not
  // cost a multi-million-edge graph generation first.
  if (!is_known_algorithm(spec.algorithm)) {
    throw JobError("unknown algorithm \"" + spec.algorithm + "\"");
  }

  ResolvedJob job;
  job.spec = std::move(spec);
  job.cache_key_prefix = job_fingerprinter(job.spec);

  // Same derivation as the single-run CLI: one RNG stream seeds the
  // generator and then the weights, so a job's workload is a pure function
  // of (source, gseed, maxw).
  Rng rng(hash_combine(job.spec.graph_seed, 0xc11));
  std::optional<EdgeWeights> loaded_ew;
  if (!job.spec.gen_spec.empty()) {
    job.graph = gen::from_spec(job.spec.gen_spec, rng);
  } else {
    auto loaded = io::load_edge_list(job.spec.graph_file);
    job.graph = std::move(loaded.graph);
    loaded_ew = std::move(loaded.edge_weights);
  }
  job.node_weights =
      gen::uniform_node_weights(job.graph.num_nodes(), job.spec.max_w, rng);
  job.edge_weights =
      loaded_ew ? std::move(*loaded_ew)
                : gen::uniform_edge_weights(job.graph.num_edges(),
                                            job.spec.max_w, rng);
  return job;
}

std::size_t BatchServer::submit(JobSpec spec) {
  if (spec.name.empty()) spec.name = "job" + std::to_string(jobs_.size());
  jobs_.push_back(resolve_job(std::move(spec)));
  return jobs_.size() - 1;
}

void BatchServer::submit_all(const std::vector<JobSpec>& specs) {
  for (const JobSpec& spec : specs) submit(spec);
}

BatchResult BatchServer::serve() {
  // Shard: one unit per (job, seed index), flattened in submission order.
  // Workers pull from one global queue, so the pool stays saturated across
  // job boundaries — no per-job fork/join barrier.
  struct Unit {
    std::uint32_t job;
    std::uint32_t run;
  };
  std::vector<Unit> units;
  std::vector<std::vector<RunRow>> rows(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const std::uint32_t n_seeds = jobs_[j].spec.num_seeds;
    rows[j].resize(n_seeds);
    for (std::uint32_t r = 0; r < n_seeds; ++r) {
      units.push_back({static_cast<std::uint32_t>(j), r});
    }
  }

  const auto start = std::chrono::steady_clock::now();

  // Metrics land in the caller's registry when one is wired (the serving
  // tiers), or in this throwaway when not (pure batch runs) — either way
  // the hot loop below is branch-free on instrumentation.
  metrics::Registry local_registry;
  metrics::Registry& reg =
      opts_.registry != nullptr ? *opts_.registry : local_registry;
  metrics::Counter& runs_total = reg.counter("runs_total");
  metrics::Counter& runs_computed = reg.counter("runs_computed_total");
  // Per-job histogram handles resolved once, outside the unit loop: the
  // registry lookup (mutex + map walk) must not sit on the per-seed path.
  std::vector<metrics::Histogram*> job_hist(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    job_hist[j] = &reg.histogram(
        "run_latency_ms{algo=\"" + jobs_[j].spec.algorithm + "\"}",
        metrics::default_latency_buckets_ms());
  }

  std::atomic<std::uint64_t> cache_hits{0};
  auto timed_dispatch = [&](const ResolvedJob& job, NetworkLease& lease,
                            std::uint64_t seed, std::uint32_t job_index) {
    const auto t0 = std::chrono::steady_clock::now();
    RunRow row = dispatch(job, lease, seed);
    job_hist[job_index]->observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
    runs_computed.inc();
    return row;
  };
  // Per worker: one reusable Network, and the job's trace collector —
  // worker threads are fresh, so the submitting thread's context does not
  // propagate and is installed explicitly.
  struct Worker {
    NetworkLease lease;
    trace::ContextGuard trace_guard;
  };
  const auto make_worker = [&] {
    return Worker{{}, trace::ContextGuard(trace::Context{
                          opts_.trace, opts_.trace_parent})};
  };
  const auto serve_unit = [&](Worker& worker, std::size_t i) {
    const Unit u = units[i];
    const ResolvedJob& job = jobs_[u.job];
    RunRow& row = rows[u.job][u.run];
    const std::uint64_t seed = job.spec.seed_at(u.run);
    runs_total.inc();
    if (opts_.cache == nullptr) {
      trace::ScopedSpan span("compute");
      span.annotate("algo", job.spec.algorithm);
      span.annotate("seed", seed);
      row = timed_dispatch(job, worker.lease, seed, u.job);
      return;
    }
    const Fingerprint key = run_fingerprint(job.cache_key_prefix, seed);
    {
      trace::ScopedSpan span("cache-lookup");
      span.annotate("seed", seed);
      if (auto cached = opts_.cache->lookup(key)) {
        row = *cached;
        cache_hits.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    {
      trace::ScopedSpan span("compute");
      span.annotate("algo", job.spec.algorithm);
      span.annotate("seed", seed);
      row = timed_dispatch(job, worker.lease, seed, u.job);
    }
    try {
      trace::ScopedSpan span("cache-store");
      span.annotate("seed", seed);
      opts_.cache->store(key, row);
    } catch (const JobError&) {
      // A fill failure (disk full, unwritable cache dir) degrades this
      // unit to uncached serving; the computed row is already in hand and
      // must not be discarded, let alone fail the batch. The next lookup
      // of this key simply misses again.
    }
  };
  const unsigned workers =
      sim::run_units(units.size(), opts_.threads, make_worker, serve_unit);

  BatchResult result;
  result.cache_hits = cache_hits.load(std::memory_order_relaxed);
  result.threads_used = workers;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.jobs.reserve(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const ResolvedJob& job = jobs_[j];
    JobResult jr;
    jr.name = job.spec.name;
    jr.algorithm = job.spec.algorithm;
    jr.source = !job.spec.gen_spec.empty() ? job.spec.gen_spec
                                           : job.spec.graph_file;
    jr.n = job.graph.num_nodes();
    jr.m = job.graph.num_edges();
    jr.max_degree = job.graph.max_degree();
    jr.rows = std::move(rows[j]);

    Summary rounds, messages, bits, objective;
    for (const RunRow& row : jr.rows) {
      rounds.add(static_cast<double>(row.rounds));
      messages.add(static_cast<double>(row.messages));
      bits.add(static_cast<double>(row.total_bits));
      objective.add(static_cast<double>(row.objective));
      jr.all_completed = jr.all_completed && row.completed;
    }
    if (!jr.rows.empty()) {
      jr.mean_rounds = rounds.mean();
      jr.mean_messages = messages.mean();
      jr.mean_bits = bits.mean();
      jr.mean_objective = objective.mean();
      jr.min_objective = jr.rows.front().objective;
      jr.max_objective = jr.rows.front().objective;
      for (const RunRow& row : jr.rows) {
        jr.min_objective = std::min(jr.min_objective, row.objective);
        jr.max_objective = std::max(jr.max_objective, row.objective);
      }
    }
    result.total_runs += jr.rows.size();
    result.jobs.push_back(std::move(jr));
  }
  result.computed = result.total_runs - result.cache_hits;
  return result;
}

Table summary_table(const BatchResult& r) {
  Table t({"job", "algo", "source", "n", "m", "maxdeg", "runs",
           "mean_rounds", "mean_msgs", "mean_bits", "mean_obj", "min_obj",
           "max_obj", "completed"});
  for (const JobResult& j : r.jobs) {
    t.add_row({j.name, j.algorithm, j.source,
               Table::fmt(static_cast<std::uint64_t>(j.n)),
               Table::fmt(static_cast<std::uint64_t>(j.m)),
               Table::fmt(static_cast<std::uint64_t>(j.max_degree)),
               Table::fmt(static_cast<std::uint64_t>(j.rows.size())),
               Table::fmt(j.mean_rounds, 1), Table::fmt(j.mean_messages, 1),
               Table::fmt(j.mean_bits, 1), Table::fmt(j.mean_objective, 1),
               Table::fmt(static_cast<std::int64_t>(j.min_objective)),
               Table::fmt(static_cast<std::int64_t>(j.max_objective)),
               j.all_completed ? "yes" : "NO"});
  }
  return t;
}

Table runs_table(const BatchResult& r) {
  Table t({"job", "algo", "seed", "rounds", "messages", "total_bits",
           "max_edge_bits", "completed", "size", "objective"});
  for (const JobResult& j : r.jobs) {
    for (const RunRow& row : j.rows) {
      t.add_row({j.name, j.algorithm, Table::fmt(row.seed),
                 Table::fmt(static_cast<std::uint64_t>(row.rounds)),
                 Table::fmt(row.messages), Table::fmt(row.total_bits),
                 Table::fmt(static_cast<std::uint64_t>(row.max_edge_bits)),
                 row.completed ? "1" : "0", Table::fmt(row.solution_size),
                 Table::fmt(static_cast<std::int64_t>(row.objective))});
    }
  }
  return t;
}

}  // namespace distapx::service
