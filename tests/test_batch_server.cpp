// Batch-serving determinism and job-file coverage (service/).
//
// The contract under test: RunRow i of job j depends only on (spec_j,
// seed) — never on the pool's thread count, on scheduling order, or on
// what other jobs share the pool — and equals what sequential per-job
// sim::run_many execution produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "mis/luby.hpp"
#include "mis/mis.hpp"
#include "service/batch_server.hpp"
#include "service/job_spec.hpp"
#include "sim/run_many.hpp"
#include "support/table.hpp"

namespace distapx {
namespace {

/// Mixed workload: 4 graph families x 4 algorithms (2 IS, 2 matching).
const char* kMixedJobFile = R"(
# mixed batch workload
gen=gnp:120:0.05      algo=luby        seeds=1:6   name=gnp-luby
gen=regular:96:6      algo=maxis-alg2  seeds=3:4   maxw=512 name=reg-maxis
gen=grid:8:8          algo=mcm-2eps    seeds=1:4   eps=0.3  name=grid-mcm

gen=tree:150          algo=mwm-lr      seeds=2:3   maxw=32  name=tree-mwm
)";

std::vector<service::JobSpec> mixed_jobs() {
  std::istringstream is(kMixedJobFile);
  return service::parse_job_file(is);
}

service::BatchResult serve_mixed(unsigned threads) {
  service::BatchServer server({threads});
  server.submit_all(mixed_jobs());
  return server.serve();
}

void expect_same_rows(const service::BatchResult& a,
                      const service::BatchResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    ASSERT_EQ(a.jobs[j].rows.size(), b.jobs[j].rows.size()) << "job " << j;
    for (std::size_t i = 0; i < a.jobs[j].rows.size(); ++i) {
      EXPECT_EQ(a.jobs[j].rows[i], b.jobs[j].rows[i])
          << a.jobs[j].name << " run " << i;
    }
  }
}

TEST(JobFile, ParsesTheMixedWorkload) {
  const auto jobs = mixed_jobs();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].name, "gnp-luby");
  EXPECT_EQ(jobs[0].algorithm, "luby");
  EXPECT_EQ(jobs[0].gen_spec, "gnp:120:0.05");
  EXPECT_EQ(jobs[0].first_seed, 1u);
  EXPECT_EQ(jobs[0].num_seeds, 6u);
  EXPECT_EQ(jobs[1].max_w, 512);
  EXPECT_EQ(jobs[1].first_seed, 3u);
  EXPECT_DOUBLE_EQ(jobs[2].eps, 0.3);
  EXPECT_EQ(jobs[3].seed_at(2), 4u);
}

TEST(JobFile, KeyForms) {
  auto spec = service::parse_job_line(
      "gen=path:10 algo=luby seeds=12 policy=local rounds=500");
  EXPECT_EQ(spec.first_seed, 1u);
  EXPECT_EQ(spec.num_seeds, 12u);
  EXPECT_FALSE(spec.policy.bounded);
  EXPECT_EQ(spec.max_rounds, 500u);
  EXPECT_TRUE(spec.name.empty());  // parse_job_file assigns job<i> names

  spec = service::parse_job_line(
      "file=some.graph algo=mwm-lr policy=congest:16 gseed=9");
  EXPECT_EQ(spec.graph_file, "some.graph");
  EXPECT_TRUE(spec.policy.bounded);
  EXPECT_EQ(spec.policy.multiplier, 16u);
  EXPECT_EQ(spec.graph_seed, 9u);
}

TEST(JobFile, DefaultNamesArePositional) {
  std::istringstream is(
      "gen=path:10 algo=luby\n"
      "# comment\n"
      "gen=path:12 algo=luby name=why\n"
      "gen=path:14 algo=luby\n");
  const auto jobs = service::parse_job_file(is);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].name, "job0");
  EXPECT_EQ(jobs[1].name, "why");
  EXPECT_EQ(jobs[2].name, "job2");
}

TEST(JobFile, MalformedLinesThrow) {
  const char* bad_lines[] = {
      "gen=path:10",                          // missing algo
      "algo=luby",                            // missing graph source
      "gen=path:10 file=x algo=luby",         // both sources
      "gen=path:10 algo=frobnicate",          // unknown algorithm
      "gen=torus:5:5 algo=luby",              // bad generator family
      "gen=path:ten algo=luby",               // bad generator parameter
      "gen=path:10 algo=luby seeds=0",        // zero runs
      "gen=path:10 algo=luby seeds=1:zz",     // bad seed count
      "gen=path:10 algo=luby policy=quantum", // bad policy
      "gen=path:10 algo=luby eps=-1",         // bad epsilon
      "gen=path:10 algo=luby eps=nan",        // non-finite epsilon
      "gen=path:10 algo=luby maxw=0",         // bad weight bound
      "gen=path:10 algo=luby frobs=3",        // unknown key
      "gen=path:10 algo=luby seeds",          // not key=value
  };
  for (const char* line : bad_lines) {
    EXPECT_THROW(service::parse_job_line(line), service::JobError) << line;
  }
}

TEST(JobFile, ErrorsCarryLineNumbers) {
  std::istringstream is("gen=path:10 algo=luby\n\ngen=path:10 algo=nope\n");
  try {
    service::parse_job_file(is);
    FAIL() << "expected JobError";
  } catch (const service::JobError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// ---- negative paths: the exact line number AND message ---------------------
//
// The daemon quarantines a malformed job file with this diagnostic and
// nothing else; operators fix spool files from the message alone, so the
// line number and the wording are contract, not decoration.

std::string job_file_error(const std::string& content) {
  std::istringstream is(content);
  try {
    service::parse_job_file(is);
  } catch (const service::JobError& e) {
    return e.what();
  }
  return "<no JobError thrown>";
}

TEST(JobFileNegativePaths, ExactLineNumberAndMessage) {
  // (file content, exact diagnostic) pairs. Comments and blank lines
  // deliberately offset the failing line to pin down the numbering.
  const struct {
    const char* content;
    const char* expected;
  } cases[] = {
      {"gen=path:10 algo=luby\nalgo=luby\n",
       "line 2: exactly one of gen= / file= is required"},
      {"\n# header comment\ngen=path:10\n",
       "line 3: missing required key algo="},
      {"gen=path:10 algo=luby seeds=0\n",
       "line 1: seeds=0 requests zero runs"},
      {"gen=path:10 algo=luby\ngen=path:10 algo=luby seeds=1:zz\n",
       "line 2: seeds=zz is not an integer in [0, 16777216]"},
      {"gen=path:10 algo=nope\n", "line 1: unknown algorithm \"nope\""},
      {"# comment\ngen=path:10 algo=luby policy\n",
       "line 2: token \"policy\" is not key=value"},
      {"gen=path:10 algo=luby eps=\n",
       "line 1: empty value for key \"eps\""},
      {"gen=path:10 algo=luby eps=-0.5\n", "line 1: eps must be positive"},
      {"gen=path:10 algo=luby maxw=0\n", "line 1: maxw must be positive"},
      {"gen=path:10 algo=luby frobs=3\n",
       "line 1: unknown key \"frobs\""},
      {"gen=path:10 algo=luby gseed=12x\n",
       "line 1: gseed=12x is not an integer in [0, 18446744073709551615]"},
      {"gen=path:10 algo=luby policy=congest:0\n",
       "line 1: policy=congest:0 has a zero multiplier"},
      {"gen=path:10 algo=luby policy=quantum\n",
       "line 1: policy=quantum (want congest[:MULT] or local)"},
      {"gen=path:10 file=x.graph algo=luby\n",
       "line 1: exactly one of gen= / file= is required"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(job_file_error(c.content), c.expected) << c.content;
  }
}

TEST(JobFileNegativePaths, BadSeedRanges) {
  // Seed-range values out of the documented [0, 2^24] count window.
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby seeds=99999999\n"),
            "line 1: seeds=99999999 is not an integer in [0, 16777216]");
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby seeds=1:99999999\n"),
            "line 1: seeds=99999999 is not an integer in [0, 16777216]");
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby seeds=-3:4\n"),
            "line 1: seeds=-3 is not an integer in [0, "
            "18446744073709551615]");
}

TEST(JobFileNegativePaths, NonFiniteAndHexFloatValuesAreRejected) {
  // strtod would happily parse every one of these; the strict-decimal
  // contract turns them into the usual line-numbered diagnostics.
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby eps=inf\n"),
            "line 1: eps=inf is not a finite number");
  EXPECT_EQ(job_file_error("# header\ngen=path:10 algo=mcm-2eps eps=nan\n"),
            "line 2: eps=nan is not a finite number");
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby eps=0x1p3\n"),
            "line 1: eps=0x1p3 is not a finite number");
  EXPECT_EQ(job_file_error("\ngen=path:10 algo=mcm-1eps eps=1e999\n"),
            "line 2: eps=1e999 is not a finite number");
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby eps=infinity\n"),
            "line 1: eps=infinity is not a finite number");
}

TEST(JobFileNegativePaths, EmbeddedGenSpecErrorsKeepLineAndSpecContext) {
  // A bad generator spec inside a job line surfaces the SpecError text
  // (family, parameter index, offending token) behind the line number.
  const std::string unknown = job_file_error(
      "gen=path:10 algo=luby\ngen=torus:5:5 algo=luby\n");
  EXPECT_NE(unknown.find("line 2: bad generator spec \"torus:5:5\""),
            std::string::npos)
      << unknown;
  EXPECT_NE(unknown.find("unknown family \"torus\""), std::string::npos);

  const std::string bad_param =
      job_file_error("gen=path:ten algo=luby\n");
  EXPECT_EQ(bad_param,
            "line 1: bad generator spec \"path:ten\": parameter 1 "
            "(\"ten\") is not an integer in [0, 268435456]");

  const std::string bad_arity = job_file_error("gen=gnp:100 algo=luby\n");
  EXPECT_EQ(bad_arity,
            "line 1: bad generator spec \"gnp:100\": family gnp takes 2 "
            "parameter(s) (gnp:N:P), got 1");
}

TEST(BatchServer, BitIdenticalAcrossThreadCounts) {
  const auto base = serve_mixed(1);
  ASSERT_EQ(base.jobs.size(), 4u);
  for (const auto& job : base.jobs) {
    EXPECT_TRUE(job.all_completed) << job.name;
    for (const auto& row : job.rows) EXPECT_GT(row.solution_size, 0u);
  }
  for (const unsigned threads : {2u, 8u}) {
    expect_same_rows(base, serve_mixed(threads));
  }
}

TEST(BatchServer, PoolSharingDoesNotPerturbJobs) {
  // Each job served alone must produce the same rows as the mixed batch:
  // nothing about pool co-tenancy may leak into results.
  const auto mixed = serve_mixed(4);
  const auto jobs = mixed_jobs();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    service::BatchServer solo({4});
    solo.submit(jobs[j]);
    const auto alone = solo.serve();
    ASSERT_EQ(alone.jobs.size(), 1u);
    ASSERT_EQ(alone.jobs[0].rows.size(), mixed.jobs[j].rows.size());
    for (std::size_t i = 0; i < alone.jobs[0].rows.size(); ++i) {
      EXPECT_EQ(alone.jobs[0].rows[i], mixed.jobs[j].rows[i])
          << jobs[j].name << " run " << i;
    }
  }
}

TEST(BatchServer, MatchesSequentialRunMany) {
  // For a single-program job the batch rows must equal a plain
  // sim::run_many pass over the same graph, factory and seeds.
  const auto jobs = mixed_jobs();
  const auto& luby_spec = jobs[0];
  ASSERT_EQ(luby_spec.algorithm, "luby");

  service::BatchServer server({8});
  server.submit_all(jobs);
  const auto batch = server.serve();
  const auto& batch_job = batch.jobs[0];

  const service::ResolvedJob reference = service::resolve_job(luby_spec);
  std::vector<std::uint64_t> seeds;
  for (std::uint32_t i = 0; i < luby_spec.num_seeds; ++i) {
    seeds.push_back(luby_spec.seed_at(i));
  }
  sim::RunManyOptions opts;
  opts.policy = luby_spec.policy;
  opts.max_rounds = luby_spec.max_rounds;
  opts.threads = 1;
  const auto runs = sim::run_many(reference.graph,
                                  make_luby_program(reference.graph), seeds,
                                  opts);
  ASSERT_EQ(runs.size(), batch_job.rows.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& row = batch_job.rows[i];
    EXPECT_EQ(row.seed, seeds[i]);
    EXPECT_EQ(row.rounds, runs[i].metrics.rounds) << i;
    EXPECT_EQ(row.messages, runs[i].metrics.messages) << i;
    EXPECT_EQ(row.total_bits, runs[i].metrics.total_bits) << i;
    EXPECT_EQ(row.max_edge_bits, runs[i].metrics.max_edge_bits) << i;
    std::uint64_t is_size = 0;
    for (const std::int64_t out : runs[i].outputs) {
      if (out == kOutInIs) ++is_size;
    }
    EXPECT_EQ(row.solution_size, is_size) << i;
    EXPECT_EQ(row.objective, static_cast<Weight>(is_size)) << i;
  }
}

TEST(BatchServer, ResolveRejectsBadSpecs) {
  service::JobSpec bad;
  bad.gen_spec = "gnp:50:0.1";
  bad.algorithm = "frobnicate";
  EXPECT_THROW(service::resolve_job(bad), service::JobError);

  service::JobSpec missing_file;
  missing_file.graph_file = "/nonexistent/definitely.graph";
  missing_file.algorithm = "luby";
  EXPECT_THROW(service::resolve_job(missing_file), std::exception);
}

TEST(BatchServer, ServeRethrowsAPerUnitException) {
  // Luby's priorities do not fit an enforced 1 x log n bit cap: every
  // unit throws, and serve() must rethrow after the pool drains instead
  // of returning rows — inline at 1 thread and from workers at 4.
  service::JobSpec spec;
  spec.gen_spec = "gnp:64:0.2";
  spec.algorithm = "luby";
  spec.num_seeds = 8;
  spec.policy = sim::BandwidthPolicy::congest(1, /*enforce=*/true);
  for (const unsigned threads : {1u, 4u}) {
    service::BatchServer server({.threads = threads});
    server.submit(spec);
    EXPECT_THROW(server.serve(), EnsureError) << "threads=" << threads;
  }
}

TEST(BatchServer, ReportsAreDeterministic) {
  // The emitted CSV/JSON are part of the determinism contract (wall time
  // deliberately lives outside the tables).
  const auto a = serve_mixed(2);
  const auto b = serve_mixed(8);
  std::ostringstream csv_a, csv_b, json_a, json_b, runs_a, runs_b;
  service::summary_table(a).write_csv(csv_a);
  service::summary_table(b).write_csv(csv_b);
  service::summary_table(a).write_json(json_a);
  service::summary_table(b).write_json(json_b);
  service::runs_table(a).write_csv(runs_a);
  service::runs_table(b).write_csv(runs_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(json_a.str(), json_b.str());
  EXPECT_EQ(runs_a.str(), runs_b.str());
  EXPECT_NE(json_a.str().find("\"job\": \"gnp-luby\""), std::string::npos);

  const std::string runs_csv = runs_a.str();
  const auto n_lines =
      static_cast<std::size_t>(std::count(runs_csv.begin(), runs_csv.end(), '\n'));
  EXPECT_EQ(n_lines, 1u + a.total_runs);  // header + one row per run
}

TEST(BatchServer, ServeTwiceIsIdempotent) {
  service::BatchServer server({4});
  server.submit_all(mixed_jobs());
  const auto first = server.serve();
  const auto second = server.serve();
  expect_same_rows(first, second);
}

}  // namespace
}  // namespace distapx
