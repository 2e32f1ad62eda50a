// The one serve path for a job file, and the shared rendering of its
// publication artifacts.
//
// Three front doors serve job files: the spool daemon (daemon.hpp), the
// socket server's lanes (socket_server.hpp), and the socket server's
// crash recovery. All three run the file through run_job — parse, serve
// on a BatchServer, render — so there is exactly one place a job file
// becomes rows. The daemon publishes the three rendered artifacts as
// NAME.summary.csv, NAME.runs.csv, NAME.report.txt; the socket server
// returns the same three byte streams in a RESULT frame. "The rows you
// get over the socket" and "the rows the daemon drops into done/" are
// the same bytes by construction, not by parallel-maintenance luck.
//
// Determinism contract: summary_csv and runs_csv are pure functions of
// the job file's content (and kEngineVersion). report_txt carries
// operational telemetry (hit rate, wall seconds) and the caller-chosen
// job label; it is deliberately outside the byte-identity contract.
#pragma once

#include <string>
#include <string_view>

#include "service/batch_server.hpp"

namespace distapx::service {

/// The three publication artifacts of one served job file.
struct RenderedResult {
  std::string summary_csv;  ///< summary_table(result) as CSV
  std::string runs_csv;     ///< runs_table(result) as CSV (determinism witness)
  std::string report_txt;   ///< served/computed/hit-rate counters
};

/// Renders a BatchResult. `job_label` names the source in report_txt's
/// "job_file" line — the daemon passes the spool file name ("sweep.job"),
/// the socket server a per-submission label.
RenderedResult render_result(const std::string& job_label,
                             const BatchResult& result);

/// One served job file: the structured result and its rendering.
struct JobRun {
  BatchResult result;
  RenderedResult rendered;
};

/// Runs one job file: parses `job_text`, serves every job on a
/// BatchServer built from `opts` (cache, registry, trace, threads), and
/// renders the result under `label`. Throws JobError on a malformed file
/// or one with no jobs, and whatever serve() throws (e.g. a CONGEST
/// violation). With opts.trace set, parsing and resolving is recorded as
/// a "parse" span under opts.trace_parent.
JobRun run_job(std::string_view job_text, const std::string& label,
               const BatchOptions& opts);

}  // namespace distapx::service
