#include "service/report_sink.hpp"

#include <sstream>

#include "service/job_spec.hpp"
#include "support/table.hpp"

namespace distapx::service {

RenderedResult render_result(const std::string& job_label,
                             const BatchResult& result) {
  RenderedResult rendered;
  {
    std::ostringstream os;
    summary_table(result).write_csv(os);
    rendered.summary_csv = os.str();
  }
  {
    std::ostringstream os;
    runs_table(result).write_csv(os);
    rendered.runs_csv = os.str();
  }
  const double hit_rate =
      result.total_runs == 0
          ? 0.0
          : static_cast<double>(result.cache_hits) /
                static_cast<double>(result.total_runs);
  rendered.report_txt =
      "job_file " + job_label + "\n" +
      "jobs " + std::to_string(result.jobs.size()) + "\n" +
      "runs " + std::to_string(result.total_runs) + "\n" +
      "served_from_cache " + std::to_string(result.cache_hits) + "\n" +
      "computed " + std::to_string(result.computed) + "\n" +
      "hit_rate " + Table::fmt(hit_rate, 4) + "\n" +
      "wall_seconds " + Table::fmt(result.wall_seconds, 4) + "\n";
  return rendered;
}

JobRun run_job(std::string_view job_text, const std::string& label,
               const BatchOptions& opts) {
  BatchServer server(opts);
  std::uint32_t parse_span = 0;
  if (opts.trace != nullptr) {
    parse_span = opts.trace->begin("parse", opts.trace_parent);
  }
  std::istringstream is{std::string(job_text)};
  server.submit_all(parse_job_file(is));
  if (opts.trace != nullptr) opts.trace->end(parse_span);
  if (server.num_jobs() == 0) throw JobError("job file contains no jobs");
  JobRun run;
  run.result = server.serve();
  run.rendered = render_result(label, run.result);
  return run;
}

}  // namespace distapx::service
