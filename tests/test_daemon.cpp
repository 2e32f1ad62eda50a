// The spool-watching service daemon (service/daemon.hpp).
//
// Contract under test: a spooled job file produces byte-identical results
// to a direct BatchServer run of the same specs; malformed files are
// quarantined with their line-numbered JobError while the daemon keeps
// serving; and the spool protocol (".job" suffix claim, stop sentinel,
// max_files) behaves as documented.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "service/batch_server.hpp"
#include "service/cache_manager.hpp"
#include "service/daemon.hpp"
#include "service/job_spec.hpp"
#include "service/report_sink.hpp"
#include "support/changelog.hpp"
#include "support/failpoint.hpp"
#include "support/fsutil.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

namespace fs = std::filesystem;
using test::ScopedTempDir;

const char* kGoodJobs =
    "gen=gnp:60:0.08  algo=luby     seeds=1:4 name=gnp-luby\n"
    "gen=grid:6:6     algo=mcm-2eps seeds=1:3 eps=0.3 name=grid-mcm\n"
    "gen=tree:50      algo=mwm-lr   seeds=2:3 maxw=32 name=tree-mwm\n";

void spool_file(const fs::path& spool, const std::string& name,
                const std::string& content) {
  // The documented producer protocol: write a temp name, rename to *.job.
  const fs::path tmp = spool / (name + ".tmp");
  {
    std::ofstream os(tmp);
    os << content;
  }
  fs::rename(tmp, spool / (name + ".job"));
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

service::DaemonOptions opts_for(const ScopedTempDir& spool,
                                const std::string& cache_dir = "") {
  service::DaemonOptions o;
  o.spool_dir = spool.str();
  o.cache_dir = cache_dir;
  o.threads = 2;
  o.poll_ms = 10;
  return o;
}

TEST(Daemon, SpooledJobFileMatchesDirectBatchServerByteForByte) {
  const ScopedTempDir spool("distapx-spool-direct");
  service::Daemon daemon(opts_for(spool));
  spool_file(spool.path, "sweep", kGoodJobs);

  const auto reports = daemon.drain_once();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_EQ(reports[0].name, "sweep");
  EXPECT_EQ(reports[0].runs, 10u);
  EXPECT_EQ(reports[0].computed, 10u);  // no cache configured

  // The same specs served directly, at a different thread count.
  std::istringstream is(kGoodJobs);
  service::BatchServer server({5});
  server.submit_all(service::parse_job_file(is));
  const auto direct = server.serve();

  std::ostringstream runs_csv, summary_csv;
  service::runs_table(direct).write_csv(runs_csv);
  service::summary_table(direct).write_csv(summary_csv);
  const fs::path done = spool.path / "done";
  EXPECT_EQ(slurp(done / "sweep.runs.csv"), runs_csv.str());
  EXPECT_EQ(slurp(done / "sweep.summary.csv"), summary_csv.str());

  // The job file moved into done/ (audit trail), the spool is empty.
  EXPECT_TRUE(fs::exists(done / "sweep.job"));
  EXPECT_FALSE(fs::exists(spool.path / "sweep.job"));
  const std::string report = slurp(done / "sweep.report.txt");
  EXPECT_NE(report.find("runs 10"), std::string::npos) << report;
  EXPECT_NE(report.find("served_from_cache 0"), std::string::npos);
  EXPECT_NE(report.find("computed 10"), std::string::npos);
}

TEST(Daemon, MalformedFileIsQuarantinedAndServingContinues) {
  const ScopedTempDir spool("distapx-spool-quarantine");
  service::Daemon daemon(opts_for(spool));
  // Line 3 carries the error (line 2 is a comment).
  spool_file(spool.path, "a-bad",
             "gen=path:10 algo=luby\n"
             "# fine so far\n"
             "gen=path:10 algo=frobnicate\n");
  spool_file(spool.path, "b-good", kGoodJobs);

  const auto reports = daemon.drain_once();
  ASSERT_EQ(reports.size(), 2u);  // lexicographic: a-bad then b-good

  EXPECT_FALSE(reports[0].ok);
  EXPECT_EQ(reports[0].name, "a-bad");
  EXPECT_NE(reports[0].error.find("line 3"), std::string::npos)
      << reports[0].error;
  EXPECT_NE(reports[0].error.find("unknown algorithm \"frobnicate\""),
            std::string::npos)
      << reports[0].error;

  // Quarantined: file + line-numbered diagnostic in failed/, nothing in
  // done/, and the good file was still served.
  EXPECT_TRUE(fs::exists(spool.path / "failed" / "a-bad.job"));
  const std::string err = slurp(spool.path / "failed" / "a-bad.error");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(spool.path / "done" / "a-bad.runs.csv"));

  EXPECT_TRUE(reports[1].ok);
  EXPECT_EQ(reports[1].runs, 10u);
  EXPECT_TRUE(fs::exists(spool.path / "done" / "b-good.runs.csv"));
}

TEST(Daemon, WarmCacheServesRepeatedFilesWithoutRecomputing) {
  const ScopedTempDir spool("distapx-spool-warm");
  const ScopedTempDir cache("distapx-spool-warm-cache");
  service::Daemon daemon(opts_for(spool, cache.str()));

  spool_file(spool.path, "cold", kGoodJobs);
  auto reports = daemon.drain_once();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].cache_hits, 0u);
  EXPECT_EQ(reports[0].computed, 10u);

  // The same workload under a different file name: all hits, same bytes.
  spool_file(spool.path, "warm", kGoodJobs);
  reports = daemon.drain_once();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_EQ(reports[0].cache_hits, 10u);
  EXPECT_EQ(reports[0].computed, 0u);
  EXPECT_DOUBLE_EQ(reports[0].hit_rate(), 1.0);

  const fs::path done = spool.path / "done";
  EXPECT_EQ(slurp(done / "warm.runs.csv"), slurp(done / "cold.runs.csv"));
  EXPECT_EQ(slurp(done / "warm.summary.csv"),
            slurp(done / "cold.summary.csv"));
}

TEST(Daemon, OnlyJobSuffixedFilesAreClaimed) {
  const ScopedTempDir spool("distapx-spool-suffix");
  service::Daemon daemon(opts_for(spool));
  {
    std::ofstream os(spool.path / "half-written.tmp");
    os << kGoodJobs;
  }
  {
    std::ofstream os(spool.path / "notes.txt");
    os << "not a job\n";
  }
  EXPECT_TRUE(daemon.drain_once().empty());
  EXPECT_TRUE(fs::exists(spool.path / "half-written.tmp"));  // untouched
}

TEST(Daemon, StopSentinelEndsRunAndIsConsumed) {
  const ScopedTempDir spool("distapx-spool-stop");
  service::Daemon daemon(opts_for(spool));
  {
    std::ofstream os(spool.path / "stop");
  }
  const auto reports = daemon.run();  // must return, not loop forever
  EXPECT_TRUE(reports.empty());
  EXPECT_FALSE(fs::exists(spool.path / "stop"));  // consumed
}

TEST(Daemon, RequestStopUnblocksRunFromAnotherThread) {
  const ScopedTempDir spool("distapx-spool-reqstop");
  service::Daemon daemon(opts_for(spool));
  std::thread runner([&] { (void)daemon.run(); });
  daemon.request_stop();
  runner.join();  // hangs forever if request_stop is broken
  EXPECT_TRUE(daemon.stop_requested());
}

TEST(Daemon, MaxFilesBoundsTheRun) {
  const ScopedTempDir spool("distapx-spool-maxfiles");
  auto opts = opts_for(spool);
  opts.max_files = 1;
  service::Daemon daemon(opts);
  spool_file(spool.path, "first", "gen=path:20 algo=luby seeds=1:2\n");
  spool_file(spool.path, "second", "gen=path:20 algo=luby seeds=1:2\n");

  const auto reports = daemon.run();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].name, "first");             // lexicographic claim
  EXPECT_TRUE(fs::exists(spool.path / "second.job"));  // left for later
}

// ---- cross-filesystem move fallback ----------------------------------------

/// Forces every fsutil::move_file through the copy+rename fallback (the
/// EXDEV path a single-mount test box cannot trigger for real) for the
/// test's lifetime.
class ForcedCopyMove : public ::testing::Test {
 protected:
  void SetUp() override { fsutil::set_force_copy_move_for_testing(true); }
  void TearDown() override { fsutil::set_force_copy_move_for_testing(false); }
};

TEST_F(ForcedCopyMove, MoveFilePreservesContentAndLeavesNoDroppings) {
  const ScopedTempDir dir("distapx-move-copy");
  fs::create_directories(dir.path / "dest");
  const fs::path from = dir.path / "src.job";
  {
    std::ofstream os(from);
    os << kGoodJobs;
  }
  fsutil::move_file(from, dir.path / "dest" / "src.job");
  EXPECT_FALSE(fs::exists(from));  // source consumed
  EXPECT_EQ(slurp(dir.path / "dest" / "src.job"), kGoodJobs);
  // The intermediate temp name was renamed away, not left behind.
  for (const auto& e : fs::recursive_directory_iterator(dir.path)) {
    EXPECT_EQ(e.path().filename().string().rfind(".move-tmp.", 0),
              std::string::npos)
        << e.path();
  }
}

TEST_F(ForcedCopyMove, FailedMoveNeverExposesAPartialDestination) {
  const ScopedTempDir dir("distapx-move-fail");
  fs::create_directories(dir.path);
  const fs::path from = dir.path / "src.job";
  {
    std::ofstream os(from);
    os << kGoodJobs;
  }
  // Destination directory does not exist: the copy fails. The regression
  // contract: the destination *name* never appears (not even partially),
  // the source survives for a retry, and no temp files leak.
  const fs::path to = dir.path / "missing" / "src.job";
  EXPECT_THROW(fsutil::move_file(from, to), fs::filesystem_error);
  EXPECT_TRUE(fs::exists(from));
  EXPECT_FALSE(fs::exists(to));
  for (const auto& e : fs::recursive_directory_iterator(dir.path)) {
    EXPECT_EQ(e.path().filename().string().rfind(".move-tmp.", 0),
              std::string::npos)
        << e.path();
  }
}

TEST_F(ForcedCopyMove, DaemonSpoolMovesSurviveTheFallbackPath) {
  // End-to-end regression for the EXDEV fallback: the daemon's moves into
  // done/ and failed/ run through copy+rename, results are byte-identical
  // to the rename path, and the spool tree holds no half-copied files.
  const ScopedTempDir spool("distapx-spool-exdev");
  service::Daemon daemon(opts_for(spool));
  spool_file(spool.path, "good", kGoodJobs);
  spool_file(spool.path, "bad", "gen=path:10 algo=frobnicate\n");

  const auto reports = daemon.drain_once();
  ASSERT_EQ(reports.size(), 2u);  // lexicographic: bad then good
  EXPECT_FALSE(reports[0].ok);
  EXPECT_TRUE(reports[1].ok);

  // Both moves completed: full content at the final names.
  EXPECT_EQ(slurp(spool.path / "done" / "good.job"), kGoodJobs);
  EXPECT_EQ(slurp(spool.path / "failed" / "bad.job"),
            "gen=path:10 algo=frobnicate\n");
  EXPECT_FALSE(fs::exists(spool.path / "good.job"));
  EXPECT_FALSE(fs::exists(spool.path / "bad.job"));
  for (const auto& e : fs::recursive_directory_iterator(spool.path)) {
    EXPECT_EQ(e.path().filename().string().rfind(".move-tmp.", 0),
              std::string::npos)
        << e.path();
  }
}

TEST(Daemon, CacheBudgetKeepsTheCacheBoundedAcrossJobFiles) {
  const ScopedTempDir spool("distapx-spool-budget");
  const ScopedTempDir cache("distapx-spool-budget-cache");
  auto opts = opts_for(spool, cache.str());
  opts.cache_budget = 5 * service::entry_file_size();
  service::Daemon daemon(opts);

  spool_file(spool.path, "cold", kGoodJobs);
  auto reports = daemon.drain_once();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_LE(daemon.cache()->manager()->live_bytes(), opts.cache_budget);

  // The same workload again: partial hits (only what survived eviction),
  // but the published rows are identical bytes — budget never changes
  // results, only hit rate.
  spool_file(spool.path, "warm", kGoodJobs);
  reports = daemon.drain_once();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_LT(reports[0].cache_hits, reports[0].runs);
  const fs::path done = spool.path / "done";
  EXPECT_EQ(slurp(done / "warm.runs.csv"), slurp(done / "cold.runs.csv"));
  EXPECT_LE(daemon.cache()->manager()->live_bytes(), opts.cache_budget);
}

TEST(Daemon, CacheBudgetWithoutCacheDirIsRejected) {
  const ScopedTempDir spool("distapx-spool-budget-nodir");
  service::DaemonOptions opts;
  opts.spool_dir = spool.str();
  opts.cache_budget = 1024;
  EXPECT_THROW(service::Daemon{opts}, service::JobError);
}

// ---- shared report sink ----------------------------------------------------

TEST(ReportSink, RenderMatchesWhatTheDaemonPublishesByteForByte) {
  // The daemon's done/ files and the socket server's RESULT sections both
  // come out of render_result; this pins the daemon side of that
  // equivalence (the socket side is pinned in test_socket_server.cpp).
  const ScopedTempDir spool("distapx-spool-sink");
  service::Daemon daemon(opts_for(spool));
  spool_file(spool.path, "sweep", kGoodJobs);
  ASSERT_TRUE(daemon.drain_once()[0].ok);

  std::istringstream is(kGoodJobs);
  service::BatchServer server({3});
  server.submit_all(service::parse_job_file(is));
  const auto rendered =
      service::render_result("sweep.job", server.serve());

  const fs::path done = spool.path / "done";
  EXPECT_EQ(slurp(done / "sweep.summary.csv"), rendered.summary_csv);
  EXPECT_EQ(slurp(done / "sweep.runs.csv"), rendered.runs_csv);
  // report.txt carries wall-clock telemetry, so only its deterministic
  // prefix and counter lines are compared.
  const std::string report = slurp(done / "sweep.report.txt");
  EXPECT_NE(report.find("job_file sweep.job\n"), std::string::npos) << report;
  EXPECT_NE(rendered.report_txt.find("job_file sweep.job\n"),
            std::string::npos);
  for (const std::string line :
       {"jobs 3", "runs 10", "served_from_cache 0", "computed 10",
        "hit_rate 0.0000"}) {
    EXPECT_NE(report.find(line + "\n"), std::string::npos) << report;
    EXPECT_NE(rendered.report_txt.find(line + "\n"), std::string::npos)
        << rendered.report_txt;
  }
}

// ---- idle-poll backoff -----------------------------------------------------

TEST(Daemon, IdlePollBackoffDoublesFromOneMsAndCapsAtPollMs) {
  std::uint32_t wait = 0;
  std::vector<std::uint32_t> schedule;
  for (int i = 0; i < 12; ++i) {
    wait = service::next_idle_wait_ms(wait, 200);
    schedule.push_back(wait);
  }
  EXPECT_EQ(schedule, (std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32, 64, 128,
                                                  200, 200, 200, 200}));
}

TEST(Daemon, IdlePollBackoffDegenerateCaps) {
  // cap 0: the legacy poll_ms=0 busy-drain loop keeps polling flat out.
  EXPECT_EQ(service::next_idle_wait_ms(0, 0), 0u);
  EXPECT_EQ(service::next_idle_wait_ms(0, 1), 1u);
  EXPECT_EQ(service::next_idle_wait_ms(1, 1), 1u);
  // No uint32 overflow near the cap.
  EXPECT_EQ(service::next_idle_wait_ms(0xffffffffu, 0xffffffffu), 0xffffffffu);
  EXPECT_EQ(service::next_idle_wait_ms(0x80000000u, 0xffffffffu), 0xffffffffu);
}

TEST(Daemon, RunServesABurstThenIdlesWithoutSpinning) {
  // Behavioral check on run() with the backoff in place: a file dropped
  // in, served, then an idle stretch bounded by max_files exit. The
  // backoff itself is pinned by the schedule tests above; this guards
  // run() still draining correctly around it.
  const ScopedTempDir spool("distapx-spool-backoff");
  auto opts = opts_for(spool);
  opts.max_files = 1;
  opts.poll_ms = 20;
  service::Daemon daemon(opts);
  spool_file(spool.path, "burst", "gen=path:20 algo=luby seeds=1:2\n");
  const auto reports = daemon.run();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok);
}

// ---- crash recovery ---------------------------------------------------------

TEST(Daemon, CrashBetweenPublishAndMoveIsResumedExactlyOnce) {
  // "my sweep": the journal's P record must carry a name with whitespace
  // as one key, or the restart cannot match it to the spooled file and
  // recomputes instead of resuming.
  for (const std::string name : {"sweep", "my sweep"}) {
    SCOPED_TRACE(name);
    const ScopedTempDir spool("distapx-spool-crash");
    {
      service::Daemon daemon(opts_for(spool));
      spool_file(spool.path, name, kGoodJobs);
      // Kill the daemon in the publish->move window, after `P name` was
      // journaled. A failpoint Failure unwinds like a real crash — it
      // must not be swallowed into quarantine.
      failpoint::arm("daemon_publish_move");
      EXPECT_THROW(daemon.drain_once(), failpoint::Failure);
    }
    const fs::path done = spool.path / "done";
    const fs::path job = spool.path / (name + ".job");
    ASSERT_TRUE(fs::exists(job));  // move never happened
    ASSERT_TRUE(fs::exists(done / (name + ".runs.csv")));  // publication did
    const std::string runs = slurp(done / (name + ".runs.csv"));
    const std::string summary = slurp(done / (name + ".summary.csv"));
    const std::string report_txt = slurp(done / (name + ".report.txt"));

    // The restarted daemon resumes: finishes the move, recomputes
    // nothing, rewrites nothing — every published byte is the original.
    service::Daemon daemon(opts_for(spool));
    const auto reports = daemon.drain_once();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].ok);
    EXPECT_TRUE(reports[0].resumed);
    EXPECT_EQ(reports[0].runs, 0u);
    EXPECT_EQ(reports[0].computed, 0u);
    EXPECT_EQ(daemon.registry().counter("spool_resumed_total").value(), 1u);
    EXPECT_EQ(slurp(done / (name + ".runs.csv")), runs);
    EXPECT_EQ(slurp(done / (name + ".summary.csv")), summary);
    EXPECT_EQ(slurp(done / (name + ".report.txt")), report_txt);
    EXPECT_TRUE(fs::exists(done / (name + ".job")));
    EXPECT_FALSE(fs::exists(job));
    // Settled for good: nothing left to claim, nothing to resume twice.
    EXPECT_TRUE(daemon.drain_once().empty());
  }
}

TEST(Daemon, ClaimWhoseJobAlreadyLeftTheSpoolIsSettledAtStartup) {
  // Crash *after* the move but before the `D` record: the work is fully
  // done; the restarted daemon settles the dangling claim instead of
  // carrying it forever.
  const ScopedTempDir spool("distapx-spool-settle");
  fs::create_directories(spool.path);
  {
    Changelog journal((spool.path / "journal").string());
    ASSERT_TRUE(journal.append("P ghost"));
  }
  service::Daemon daemon(opts_for(spool));
  EXPECT_EQ(daemon.journal().snapshot_records(), 0u);
  EXPECT_EQ(daemon.journal().tail_records(), 0u);
  EXPECT_TRUE(daemon.drain_once().empty());
  EXPECT_EQ(daemon.registry().counter("spool_resumed_total").value(), 0u);
}

TEST(Daemon, IncompletePublicationIsRecomputedNotResumed) {
  const ScopedTempDir spool("distapx-spool-partial");
  {
    service::Daemon daemon(opts_for(spool));
    spool_file(spool.path, "sweep", kGoodJobs);
    failpoint::arm("daemon_publish_move");
    EXPECT_THROW(daemon.drain_once(), failpoint::Failure);
  }
  // One published artifact is gone (damaged disk, manual cleanup): the
  // resume precondition fails and the job is served from scratch.
  fs::remove(spool.path / "done" / "sweep.runs.csv");

  service::Daemon daemon(opts_for(spool));
  const auto reports = daemon.drain_once();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_FALSE(reports[0].resumed);
  EXPECT_EQ(reports[0].runs, 10u);  // recomputed
  EXPECT_TRUE(fs::exists(spool.path / "done" / "sweep.runs.csv"));
  EXPECT_FALSE(fs::exists(spool.path / "sweep.job"));
  EXPECT_EQ(daemon.registry().counter("spool_resumed_total").value(), 0u);
}

TEST(Daemon, EmptyJobFileIsQuarantinedNotLooped) {
  const ScopedTempDir spool("distapx-spool-empty");
  service::Daemon daemon(opts_for(spool));
  spool_file(spool.path, "empty", "# only a comment\n");
  const auto reports = daemon.drain_once();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].ok);
  EXPECT_NE(reports[0].error.find("no jobs"), std::string::npos);
  EXPECT_TRUE(fs::exists(spool.path / "failed" / "empty.job"));
  // A second drain finds nothing: the file must not wedge the spool.
  EXPECT_TRUE(daemon.drain_once().empty());
}

}  // namespace
}  // namespace distapx
