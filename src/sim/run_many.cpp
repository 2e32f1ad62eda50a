#include "sim/run_many.hpp"

#include <algorithm>

namespace distapx::sim {

unsigned resolve_threads(unsigned requested, std::size_t jobs) {
  unsigned workers =
      requested != 0 ? requested
                     : std::max(1u, std::thread::hardware_concurrency());
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(jobs, 1)));
  return workers;
}

std::vector<RunResult> run_many(const Graph& g, const ProgramFactory& factory,
                                std::span<const std::uint64_t> seeds,
                                const RunManyOptions& opts) {
  std::vector<RunResult> results(seeds.size());
  RunOptions base;
  base.policy = opts.policy;
  base.max_rounds = opts.max_rounds;
  // Each worker owns one Network: transport buffers are allocated once and
  // reused across all the runs that worker picks up.
  run_units(
      seeds.size(), opts.threads, [&] { return Network(g); },
      [&](Network& net, std::size_t i) {
        RunOptions run_opts = base;
        run_opts.seed = seeds[i];
        results[i] = net.run(factory, run_opts);
      });
  return results;
}

}  // namespace distapx::sim
