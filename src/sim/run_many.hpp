// Batched multi-seed execution of simulator runs.
//
// The property sweeps and Table-1 benches all share one shape: the same
// algorithm on the same topology across many seeds, with every run fully
// independent. run_many() schedules those runs over a worker pool where
// each worker owns one reusable Network (flat transport buffers are
// allocated once per worker, not once per run), and run_many_tasks()
// generalizes the scheduler to arbitrary per-seed pipelines (e.g. the
// multi-phase weighted-matching benches that chain several Network runs
// per seed).
//
// Determinism: results[i] depends only on (graph, factory, seeds[i],
// options) — never on the thread count or on scheduling order — so a batch
// is bit-identical at 1 thread and at N threads, and across invocations.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/network.hpp"

namespace distapx::sim {

struct RunManyOptions {
  BandwidthPolicy policy = BandwidthPolicy::congest();
  std::uint32_t max_rounds = 1u << 20;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
};

/// Number of workers actually used for `jobs` jobs: `requested` (or the
/// hardware concurrency when 0), clamped to [1, jobs].
unsigned resolve_threads(unsigned requested, std::size_t jobs);

/// One run of `factory` on `g` per seed, scheduled across worker threads.
/// Results are indexed like `seeds`. The factory is invoked concurrently
/// and must be thread-safe (the make_*_program factories are: they only
/// read captured inputs). Throws the first per-run exception (e.g. a
/// CONGEST violation under an enforcing policy) after the pool drains.
std::vector<RunResult> run_many(const Graph& g, const ProgramFactory& factory,
                                std::span<const std::uint64_t> seeds,
                                const RunManyOptions& opts = {});

/// The one seed-parallel drain loop (run_many, run_many_tasks and
/// service::BatchServer::serve all schedule through it): calls
/// body(state, i) once for every unit i in [0, units) on
/// resolve_threads(threads, units) workers pulling indices from one
/// shared counter. Each worker first builds its own state with
/// make_state() — a reusable Network, a trace context guard — and keeps
/// it for every unit it picks up. The first exception a body throws
/// cancels the units not yet started and is rethrown once every worker
/// has stopped. One worker runs inline on the calling thread. Returns the
/// number of workers used.
template <typename MakeState, typename Body>
unsigned run_units(std::size_t units, unsigned threads,
                   MakeState&& make_state, Body&& body) {
  const unsigned workers = resolve_threads(threads, units);
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto drain = [&] {
    auto state = make_state();
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= units) return;
      try {
        body(state, i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
        next.store(units);  // cancel the remaining queue
        return;
      }
    }
  };
  if (workers <= 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(drain);
    for (auto& th : pool) th.join();
  }
  if (error) std::rethrow_exception(error);
  return workers;
}

/// Generic deterministic seed-parallel scheduler: results[i] =
/// task(seeds[i], i). `task` must be safe to call concurrently.
template <typename Task>
auto run_many_tasks(std::span<const std::uint64_t> seeds, unsigned threads,
                    Task&& task)
    -> std::vector<decltype(task(std::uint64_t{}, std::size_t{}))> {
  using Result = decltype(task(std::uint64_t{}, std::size_t{}));
  // std::vector<bool> packs bits: concurrent writes to adjacent slots
  // would race. Return char/int instead.
  static_assert(!std::is_same_v<Result, bool>,
                "run_many_tasks cannot return bool (vector<bool> races)");
  std::vector<Result> results(seeds.size());
  run_units(
      seeds.size(), threads, [] { return 0; },
      [&](int, std::size_t i) { results[i] = task(seeds[i], i); });
  return results;
}

}  // namespace distapx::sim
