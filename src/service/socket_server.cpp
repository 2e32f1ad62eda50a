#include "service/socket_server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "service/job_spec.hpp"
#include "service/report_sink.hpp"
#include "support/log.hpp"

namespace distapx::service {

namespace {

using Clock = std::chrono::steady_clock;

/// A SUBMIT waiting for (or on) a lane.
struct PendingJob {
  std::uint64_t conn_id = 0;
  std::uint64_t conn_seq = 0;   ///< 1-based per-connection submit number
  std::uint64_t submit_no = 0;  ///< 1-based global arrival number (label)
  std::string payload;          ///< raw job-file bytes
  Clock::time_point enqueued;   ///< arrival, for the job_latency_ms series
  /// Span collector for this SUBMIT (trace id = submit_no); null when
  /// tracing is off and no echo was requested. Shared with the lane and
  /// the flush watcher that closes the respond span.
  std::shared_ptr<trace::Collector> tracer;
  std::uint32_t queue_span = 0;  ///< open queue-wait span, ended by the lane
  bool want_trace = false;       ///< SUBMITTRACE: echo the tree in the reply
};

/// What a lane hands back to the I/O thread.
struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t conn_seq = 0;
  std::uint64_t submit_no = 0;  ///< for the journal's R record
  bool ok = false;
  net::ResultPayload result;  ///< when ok
  std::string error;          ///< when !ok
  std::shared_ptr<trace::Collector> tracer;  ///< carried through from the job
  bool want_trace = false;
};

/// The server's metric handles, resolved once from the registry at run()
/// entry so the hot paths touch relaxed atomics only — never the
/// registry's registration mutex. Shared between the I/O thread and the
/// lanes; every series is independent and monotone (or a gauge), never
/// used to synchronize anything.
struct Meters {
  metrics::Counter& connections_accepted;
  metrics::Counter& submits_accepted;
  metrics::Counter& results_ok;
  metrics::Counter& results_error;
  metrics::Counter& protocol_errors;
  metrics::Counter& frame_errors;  ///< decode-level subset of the above
  metrics::Counter& timeouts;
  metrics::Counter& pings;
  metrics::Counter& jobs_dropped;
  metrics::Counter& bytes_read;
  metrics::Counter& bytes_written;
  metrics::Counter& lane_busy_us;
  metrics::Gauge& queue_depth;
  metrics::Gauge& executing;
  metrics::Gauge& lanes;
  metrics::Gauge& connections_open;
  metrics::Gauge& draining;
  metrics::Gauge& ready;
  metrics::Histogram& job_latency_ms;        ///< submit arrival -> done
  metrics::Histogram& queue_depth_at_submit;

  explicit Meters(metrics::Registry& reg)
      : connections_accepted(reg.counter("connections_accepted_total")),
        submits_accepted(reg.counter("submits_accepted_total")),
        results_ok(reg.counter("results_ok_total")),
        results_error(reg.counter("results_error_total")),
        protocol_errors(reg.counter("protocol_errors_total")),
        frame_errors(reg.counter("frame_errors_total")),
        timeouts(reg.counter("timeouts_total")),
        pings(reg.counter("pings_total")),
        jobs_dropped(reg.counter("jobs_dropped_total")),
        bytes_read(reg.counter("conn_bytes_read_total")),
        bytes_written(reg.counter("conn_bytes_written_total")),
        lane_busy_us(reg.counter("lane_busy_us_total")),
        queue_depth(reg.gauge("queue_depth")),
        executing(reg.gauge("executing")),
        lanes(reg.gauge("lanes")),
        connections_open(reg.gauge("connections_open")),
        draining(reg.gauge("draining")),
        ready(reg.gauge("ready")),
        job_latency_ms(reg.histogram("job_latency_ms",
                                     metrics::default_latency_buckets_ms())),
        queue_depth_at_submit(reg.histogram(
            "queue_depth_at_submit",
            {0, 1, 2, 4, 8, 16, 32, 64, 128, 256})) {}
};

unsigned effective_lanes(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(hw, 8u));
}

}  // namespace

/// One run()'s state. The loop owns the sockets; this owns what their
/// bytes mean: frame decoding, the lane scheduler, per-connection FIFO
/// delivery, the trace flush watch, the journal and the drain.
struct SocketServer::Run final : net::ConnLoop::Handler {
  using Conn = net::ConnLoop::Conn;

  /// One framed connection's protocol state, owned by its Conn.
  struct Session final : net::ConnLoop::Session {
    net::FrameReader reader;
    std::uint32_t inflight = 0;  ///< SUBMITs not yet answered on this conn
    std::uint64_t next_submit_seq = 1;   ///< conn_seq for the next SUBMIT
    std::uint64_t next_deliver_seq = 1;  ///< conn_seq owed to the peer next
    /// Completions that finished ahead of their turn (lanes race); drained
    /// into the output strictly in conn_seq order.
    std::map<std::uint64_t, Completion> ready;
    /// Each traced response records the conn's queued_total() at which
    /// its bytes are fully out — that is when its respond span closes and
    /// its trace publishes. FIFO (responses leave in enqueue order).
    struct PendingFlush {
      std::uint64_t target = 0;  ///< sent_total at which the reply is out
      std::shared_ptr<trace::Collector> tracer;
      std::uint32_t respond_span = 0;
    };
    std::deque<PendingFlush> flush_watch;

    explicit Session(std::size_t max_frame) : reader(max_frame) {}
  };
  static Session& session(Conn& c) {
    return static_cast<Session&>(*c.session);
  }

  SocketServer& srv;
  const SocketServerOptions& opts;
  Meters counters;
  std::size_t open_conns = 0;        ///< framed connections
  std::uint64_t inflight_total = 0;  ///< jobs enqueued, completion pending
  bool draining = false;

  // ---- lane scheduler ----------------------------------------------------
  //
  // Per-connection FIFO queues plus a round-robin ring of connection ids
  // with pending work: a lane takes the front job of the front
  // connection, then rotates that connection to the back of the ring if
  // it still has work. One connection's jobs run in submit order *start*
  // order (FIFO within the queue); across connections, a burst from one
  // client costs everyone else at most one job's wait per lane.
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, std::deque<PendingJob>> pending;  // guarded by mu
  std::deque<std::uint64_t> rr_ring;  // conn ids with pending work, each once
  std::size_t queued = 0;             // guarded by mu
  std::size_t executing = 0;          // guarded by mu
  std::vector<Completion> completions;  // guarded by mu
  bool lanes_exit = false;              // guarded by mu
  std::vector<std::thread> lanes;

  Run(SocketServer& server, unsigned lane_count)
      : srv(server), opts(server.opts_), counters(*server.reg_) {
    counters.lanes.set(lane_count);
    lanes.reserve(lane_count);
    for (unsigned lane = 0; lane < lane_count; ++lane) {
      lanes.emplace_back([this] { lane_main(); });
    }
  }

  // Joins the lanes on every exit path — including a poll() throw — so a
  // NetError can propagate without std::thread::~thread terminating.
  ~Run() override { stop_lanes(); }

  void stop_lanes() {
    {
      std::lock_guard lock(mu);
      lanes_exit = true;
    }
    cv.notify_all();
    for (auto& t : lanes) t.join();
    lanes.clear();
  }

  // Completes one trace: publishes it and emits the slow_job line when
  // the job blew the --slow-ms budget.
  void finalize_trace(trace::Collector& tr) const {
    trace::finish_and_publish(tr, opts.trace_sink, opts.slow_ms);
  }

  // ---- lanes ---------------------------------------------------------------

  Completion execute(PendingJob& job, std::uint32_t exec_span) {
    Completion done;
    done.conn_id = job.conn_id;
    done.conn_seq = job.conn_seq;
    done.submit_no = job.submit_no;
    try {
      // Parse and per-seed child spans (cache-lookup / compute /
      // cache-store) hang off this lane's execute span.
      JobRun run = run_job(job.payload,
                           "submit-" + std::to_string(job.submit_no),
                           {.threads = opts.threads,
                            .cache = srv.cache(),
                            .registry = srv.reg_,
                            .trace = job.tracer.get(),
                            .trace_parent = exec_span});
      if (job.tracer) {
        job.tracer->annotate(exec_span, "runs", run.result.total_runs);
        job.tracer->annotate(exec_span, "cache_hits", run.result.cache_hits);
      }
      done.result = {std::move(run.rendered.summary_csv),
                     std::move(run.rendered.runs_csv),
                     std::move(run.rendered.report_txt)};
      if (net::result_wire_size(done.result) > net::kMaxWirePayload) {
        // Degrade to ERR rather than let encode_frame throw on the I/O
        // thread: the rows exist, they just cannot ride a u32-framed
        // RESULT (split the job file instead).
        throw JobError("result of " +
                       std::to_string(net::result_wire_size(done.result)) +
                       " bytes exceeds the wire format's u32 frame limit; "
                       "split the job file");
      }
      done.ok = true;
    } catch (const std::exception& e) {
      // Parse errors (line-numbered JobError), spec errors, and run-time
      // failures (e.g. a CONGEST violation) all become this client's ERR
      // payload; the server keeps serving.
      done.ok = false;
      done.error = e.what();
    }
    done.tracer = std::move(job.tracer);
    done.want_trace = job.want_trace;
    return done;
  }

  void lane_main() {
    for (;;) {
      PendingJob job;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !rr_ring.empty() || lanes_exit; });
        if (rr_ring.empty()) return;  // lanes_exit and nothing left
        const std::uint64_t id = rr_ring.front();
        rr_ring.pop_front();
        const auto it = pending.find(id);
        job = std::move(it->second.front());
        it->second.pop_front();
        --queued;
        counters.queue_depth.set(static_cast<std::int64_t>(queued));
        if (it->second.empty()) {
          pending.erase(it);
        } else {
          rr_ring.push_back(id);  // round-robin: back of the ring
        }
        ++executing;
        counters.executing.set(static_cast<std::int64_t>(executing));
      }
      trace::Collector* const tr = job.tracer.get();
      std::uint32_t exec_span = 0;
      if (tr != nullptr) {
        tr->end(job.queue_span);
        exec_span = tr->begin("lane-execute");
      }
      const auto exec_start = Clock::now();
      Completion done = execute(job, exec_span);
      const auto exec_end = Clock::now();
      if (tr != nullptr) {
        if (!done.ok) tr->annotate(exec_span, "outcome", "error");
        tr->end(exec_span);
      }
      counters.lane_busy_us.inc(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(exec_end -
                                                                exec_start)
              .count()));
      // Arrival-to-done, queue wait included: the latency a pipelining
      // client actually experiences per submit.
      counters.job_latency_ms.observe(
          std::chrono::duration<double, std::milli>(exec_end - job.enqueued)
              .count());
      // Counted at completion, delivered or not — matching the
      // pre-lane semantics where a reaped client's finished job still
      // counted. The drop itself shows up in jobs_dropped.
      (done.ok ? counters.results_ok : counters.results_error).inc();
      // Retire the claim (ERR counts too: re-running a malformed job
      // recovers nothing). The changelog's own mutex serializes this
      // against the I/O thread's S appends.
      if (srv.journal_) {
        srv.journal_->append(
            encode_record("R", std::to_string(done.submit_no)));
      }
      {
        std::lock_guard lock(mu);
        --executing;
        counters.executing.set(static_cast<std::int64_t>(executing));
        completions.push_back(std::move(done));
      }
      srv.loop_.wake();
    }
  }

  // ---- I/O thread ----------------------------------------------------------

  static void respond(Conn& c, net::FrameType type, std::string_view payload) {
    c.out += net::encode_frame(type, payload);
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    counters.draining.set(1);
    logx::info("drain_begin", {});
    srv.loop_.request_stop();  // run() returns once the drain is done
    srv.loop_.stop_accepting(*this);  // new connects are refused from here
    srv.loop_.for_each(*this, [](Conn& c) {
      if (session(c).inflight == 0) c.close();
    });
  }

  void protocol_error(Conn& c, const std::string& what) {
    counters.protocol_errors.inc();
    logx::warn("protocol_error", {{"err", what}});
    respond(c, net::FrameType::kError, "protocol error: " + what);
    c.close();
  }

  void count_truncated_frame() {
    counters.protocol_errors.inc();
    counters.frame_errors.inc();
  }

  void handle_frame(Conn& c, net::Frame& frame) {
    switch (frame.type) {
      case net::FrameType::kHello: {
        std::uint32_t version = 0;
        std::string software;
        if (!net::decode_hello(frame.payload, version, software)) {
          protocol_error(c, "malformed HELLO payload");
          return;
        }
        if (version != net::kProtocolVersion) {
          respond(c, net::FrameType::kError,
                  "unsupported protocol version " + std::to_string(version) +
                      " (server speaks " +
                      std::to_string(net::kProtocolVersion) + ")");
          c.close();
          return;
        }
        respond(c, net::FrameType::kHello, net::encode_hello());
        return;
      }
      case net::FrameType::kPing:
        counters.pings.inc();
        respond(c, net::FrameType::kPong, {});
        return;
      case net::FrameType::kStatsReq:
        respond(c, net::FrameType::kStats, srv.stats_text());
        return;
      case net::FrameType::kSubmit:
      case net::FrameType::kSubmitTrace:
        submit(c, frame);
        return;
      case net::FrameType::kShutdown:
        if (!opts.allow_remote_shutdown) {
          respond(c, net::FrameType::kError,
                  "shutdown over the wire is disabled");
          return;
        }
        respond(c, net::FrameType::kShutdown, {});
        begin_drain();
        // begin_drain skipped this conn if it has inflight work; without
        // any it must still flush the ack before closing.
        if (session(c).inflight == 0) c.close();
        return;
      case net::FrameType::kResult:
      case net::FrameType::kResultTrace:
      case net::FrameType::kError:
      case net::FrameType::kPong:
      case net::FrameType::kStats:
        protocol_error(c, "server-to-client frame type from a client");
        return;
    }
    protocol_error(c, "unknown frame type");
  }

  void submit(Conn& c, net::Frame& frame) {
    Session& s = session(c);
    const std::uint64_t conn_id = c.id;
    const bool want_trace = frame.type == net::FrameType::kSubmitTrace;
    if (draining) {
      respond(c, net::FrameType::kError, "server is draining; submit rejected");
      return;
    }
    // inc() returns the post-increment value: the counter itself is the
    // submit-number sequence, no shadow variable.
    const std::uint64_t submit_no = counters.submits_accepted.inc();
    // The global gate covers the ambient always-on tracing; an explicit
    // echo request overrides it for this one job.
    std::shared_ptr<trace::Collector> tracer;
    std::uint32_t recv_span = 0;
    if (trace::enabled() || want_trace) {
      tracer = std::make_shared<trace::Collector>(submit_no, "submit");
      recv_span = tracer->begin("recv");
      tracer->annotate(recv_span, "conn", conn_id);
      tracer->annotate(recv_span, "bytes", frame.payload.size());
    }
    // The claim must be durable before the job can execute: once a lane
    // may have stored partial cache entries, a crash must find the S
    // record or recovery has nothing to finish. An append failure costs
    // recoverability for this one job, nothing else.
    if (srv.journal_ &&
        !srv.journal_->append(encode_record("S", std::to_string(submit_no),
                                            frame.payload))) {
      logx::warn("socket_journal_append_failed",
                 {{"no", submit_no}, {"trace", submit_no}});
    }
    ++s.inflight;
    ++inflight_total;
    const std::uint64_t conn_seq = s.next_submit_seq++;
    std::uint32_t queue_span = 0;
    if (tracer) {
      tracer->end(recv_span);
      queue_span = tracer->begin("queue-wait");
    }
    {
      std::lock_guard lock(mu);
      auto& q = pending[conn_id];
      if (q.empty()) rr_ring.push_back(conn_id);
      q.push_back(PendingJob{conn_id, conn_seq, submit_no,
                             std::move(frame.payload), Clock::now(),
                             std::move(tracer), queue_span, want_trace});
      ++queued;
      counters.queue_depth.set(static_cast<std::int64_t>(queued));
      counters.queue_depth_at_submit.observe(static_cast<double>(queued));
    }
    logx::debug("submit",
                {{"conn", conn_id}, {"no", submit_no}, {"trace", submit_no}});
    cv.notify_one();
    if (opts.max_requests != 0 && submit_no >= opts.max_requests) {
      begin_drain();
    }
  }

  void deliver_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard lock(mu);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      --inflight_total;
      Conn* const conn = srv.loop_.find(done.conn_id);
      if (conn == nullptr) {
        // Client left while the job ran; nowhere to send the response.
        counters.jobs_dropped.inc();
        if (done.tracer) finalize_trace(*done.tracer);
        continue;
      }
      Conn& c = *conn;
      Session& s = session(c);
      // Per-connection FIFO: park the completion, then release the head
      // run — everything whose turn has come goes out in submit order,
      // however the lanes raced.
      s.ready.emplace(done.conn_seq, std::move(done));
      while (!s.ready.empty() &&
             s.ready.begin()->first == s.next_deliver_seq) {
        Completion& head = s.ready.begin()->second;
        std::shared_ptr<trace::Collector> tracer = std::move(head.tracer);
        std::uint32_t respond_span = 0;
        if (head.ok) {
          std::string trace_txt;
          if (head.want_trace && tracer) {
            // Render before opening the respond span so the echoed tree
            // is complete (the respond span itself cannot appear in the
            // bytes that carry it).
            trace_txt = trace::render_trace_tree(tracer->snapshot());
          }
          if (tracer) respond_span = tracer->begin("respond");
          if (head.want_trace && tracer &&
              net::result_trace_wire_size(head.result, trace_txt) <=
                  net::kMaxWirePayload) {
            respond(c, net::FrameType::kResultTrace,
                    net::encode_result_trace(head.result, trace_txt));
          } else if (head.want_trace) {
            // Result near the frame cap: the echo would not fit. Fail the
            // request rather than silently answering a SUBMITTRACE with a
            // bare RESULT the client is not expecting.
            respond(c, net::FrameType::kError,
                    "result too large for trace echo; "
                    "resubmit without --trace");
          } else {
            respond(c, net::FrameType::kResult,
                    net::encode_result(head.result));
          }
        } else {
          if (tracer) respond_span = tracer->begin("respond");
          respond(c, net::FrameType::kError, head.error);
        }
        if (tracer) {
          s.flush_watch.push_back(Session::PendingFlush{
              c.queued_total(), std::move(tracer), respond_span});
        }
        s.ready.erase(s.ready.begin());
        ++s.next_deliver_seq;
        --s.inflight;
      }
      if ((draining || c.read_eof) && s.inflight == 0) c.close();
    }
  }

  // ---- net::ConnLoop::Handler ---------------------------------------------

  std::unique_ptr<net::ConnLoop::Session> on_open(Conn& c) override {
    auto s = std::make_unique<Session>(opts.max_frame_bytes);
    counters.connections_accepted.inc();
    counters.connections_open.set(static_cast<std::int64_t>(++open_conns));
    logx::debug("conn_accepted", {{"conn", c.id}});
    return s;
  }

  void on_data(Conn& c, std::string_view bytes) override {
    Session& s = session(c);
    counters.bytes_read.inc(bytes.size());
    s.reader.feed(bytes.data(), bytes.size());
    for (;;) {
      net::Frame frame;
      const net::FrameStatus status = s.reader.next(frame);
      if (status == net::FrameStatus::kFrame) {
        handle_frame(c, frame);
        if (c.closing) break;
        continue;
      }
      if (status == net::FrameStatus::kNeedMore) break;
      counters.frame_errors.inc();  // decode-level: bad magic, oversize
      protocol_error(c, net::frame_status_name(status));
      break;
    }
    // A partially received frame puts the peer on the reap clock.
    c.mid_request = s.reader.mid_frame();
  }

  // A frame half-sent at EOF is truncated for good: the connection goes
  // at once, unsent output and queued jobs with it. A clean half-close
  // with nothing owed flushes what is queued, then closes; with work in
  // flight, deliver_completions closes once the last response is out.
  void on_eof(Conn& c) override {
    const Session& s = session(c);
    if (s.reader.mid_frame()) {
      count_truncated_frame();
      c.drop();
    } else if (s.inflight == 0) {
      c.close();
    }
  }

  void on_sent(Conn& c, std::size_t n) override {
    counters.bytes_written.inc(n);
    // A respond span ends when its response bytes have actually left for
    // the kernel, not when they were enqueued — so queue-behind time under
    // pipelining is visible in the trace.
    auto& watch = session(c).flush_watch;
    while (!watch.empty() && watch.front().target <= c.sent_total) {
      Session::PendingFlush fw = std::move(watch.front());
      watch.pop_front();
      if (fw.tracer) {
        fw.tracer->end(fw.respond_span);
        finalize_trace(*fw.tracer);
      }
    }
  }

  // Tears down a session that may still own queued/running/buffered work:
  // queued jobs are discarded unexecuted (a dead conn_id must never cost
  // lane time), buffered completions die with the conn, and a job already
  // on a lane gets dropped at delivery instead.
  void on_close(Conn& c, net::ConnLoop::CloseReason why) override {
    const std::uint64_t id = c.id;
    Session& s = session(c);
    if (why == net::ConnLoop::CloseReason::kReset && s.reader.mid_frame()) {
      count_truncated_frame();
    } else if (why == net::ConnLoop::CloseReason::kTimeout) {
      // Slow loris (stalled mid-frame) or a peer that never drains its
      // responses: classified, counted, reaped.
      counters.timeouts.inc();
      logx::warn("conn_timeout", {{"conn", id}});
      if (s.reader.mid_frame() && !c.closing) {
        count_truncated_frame();
        c.last_words(net::encode_frame(
            net::FrameType::kError,
            "protocol error: timeout waiting for the rest of a frame"));
      }
    }
    std::size_t purged = 0;
    std::vector<std::shared_ptr<trace::Collector>> orphaned;
    {
      std::lock_guard lock(mu);
      const auto pit = pending.find(id);
      if (pit != pending.end()) {
        purged = pit->second.size();
        queued -= purged;
        counters.queue_depth.set(static_cast<std::int64_t>(queued));
        for (PendingJob& pj : pit->second) {
          if (pj.tracer) {
            pj.tracer->annotate(pj.queue_span, "outcome", "conn-lost");
            orphaned.push_back(std::move(pj.tracer));
          }
        }
        pending.erase(pit);
        rr_ring.erase(std::remove(rr_ring.begin(), rr_ring.end(), id),
                      rr_ring.end());
      }
    }
    // Publish outside the scheduler lock: the sink's slowest-K writer
    // mutex and the slow_job log line have no business under mu.
    for (const auto& tracer : orphaned) finalize_trace(*tracer);
    for (Session::PendingFlush& fw : s.flush_watch) {
      if (fw.tracer) {
        fw.tracer->annotate(fw.respond_span, "outcome", "conn-lost");
        fw.tracer->end(fw.respond_span);
        finalize_trace(*fw.tracer);
      }
    }
    for (auto& [seq, done] : s.ready) {
      if (done.tracer) finalize_trace(*done.tracer);
    }
    const std::uint64_t dropped = purged + s.ready.size();
    if (dropped > 0) {
      counters.jobs_dropped.inc(dropped);
      logx::warn("jobs_dropped", {{"conn", id}, {"count", dropped}});
    }
    inflight_total -= purged;
    logx::debug("conn_closed", {{"conn", id}});
    counters.connections_open.set(static_cast<std::int64_t>(--open_conns));
  }

  void on_wake() override {
    deliver_completions();
    // Idle compaction: with nothing in flight every S has its R, so the
    // whole tail is settled history — cut it to an empty snapshot. The
    // journal's steady-state size is the in-flight window, not the
    // server's lifetime submit count.
    if (srv.journal_ && inflight_total == 0 &&
        srv.journal_->tail_records() > 0) {
      srv.journal_->snapshot({});
    }
    if (srv.loop_.stop_requested()) begin_drain();
  }

  bool done() override {
    return draining && inflight_total == 0 && open_conns == 0;
  }
};

std::string SocketServer::stats_text() const {
  // cache_hits and computed are the shared ResultCache / BatchServer
  // counters; the serving tier keeps no copies of them.
  const metrics::Snapshot snap = reg_->snapshot();
  std::ostringstream os;
  os << "endpoint " << ep_.to_string() << "\n"
     << "draining " << snap.gauge_or("draining") << "\n"
     << "lanes " << snap.gauge_or("lanes") << "\n"
     << "connections_open " << snap.gauge_or("connections_open") << "\n"
     << "connections_accepted "
     << snap.counter_or("connections_accepted_total") << "\n"
     << "submits_accepted " << snap.counter_or("submits_accepted_total")
     << "\n"
     << "results_ok " << snap.counter_or("results_ok_total") << "\n"
     << "results_error " << snap.counter_or("results_error_total") << "\n"
     << "protocol_errors " << snap.counter_or("protocol_errors_total")
     << "\n"
     << "timeouts " << snap.counter_or("timeouts_total") << "\n"
     << "pings " << snap.counter_or("pings_total") << "\n"
     << "cache_hits " << snap.counter_or("cache_hits_total") << "\n"
     << "computed " << snap.counter_or("runs_computed_total") << "\n"
     << "jobs_dropped " << snap.counter_or("jobs_dropped_total") << "\n"
     << "queue_depth " << snap.gauge_or("queue_depth") << "\n"
     << "executing " << snap.gauge_or("executing") << "\n";
  return os.str();
}

SocketServer::SocketServer(SocketServerOptions opts)
    : opts_(std::move(opts)) {
  reg_ = &metrics::ensure_registry(opts_.registry, own_registry_);
  if (!opts_.cache_dir.empty()) {
    cache_.emplace(opts_.cache_dir, opts_.cache_budget, reg_);
  } else if (opts_.cache_budget != 0) {
    throw JobError("cache_budget needs a cache_dir");
  }
  if (!opts_.journal_path.empty()) {
    try {
      journal_.emplace(opts_.journal_path);
    } catch (const ChangelogError& e) {
      throw JobError("cannot open submit journal " + opts_.journal_path +
                     ": " + e.what());
    }
    // Recover: S-without-R records are jobs a crashed predecessor
    // accepted but never finished. Their connections are gone — clients
    // will retry — so the point of re-executing them is the *cache*: the
    // retries land on warm entries instead of recomputing every row.
    // Without a cache there is nothing a recovery could usefully write,
    // so the records are just dropped.
    std::map<std::uint64_t, std::string> unfinished;  // by submit number
    for (ChangelogRecord& rec : journal_->replayed_records()) {
      const std::uint64_t no = std::strtoull(rec.key.c_str(), nullptr, 10);
      if (rec.tag == "S") {
        unfinished.emplace(no, std::move(rec.payload));
      } else if (rec.tag == "R") {
        unfinished.erase(no);
      }
    }
    if (!unfinished.empty() && cache_) {
      metrics::Counter& recovered =
          reg_->counter("socket_recovered_jobs_total");
      for (const auto& [no, payload] : unfinished) {
        try {
          run_job(payload, "submit-" + std::to_string(no),
                  {.threads = opts_.threads, .cache = cache(),
                   .registry = reg_});
          recovered.inc();
          logx::info("socket_job_recovered", {{"submit_no", no}});
        } catch (const std::exception& e) {
          // A job that was malformed before the crash is malformed now;
          // its client got no answer and will learn so on retry.
          logx::warn("socket_job_recovery_failed",
                     {{"submit_no", no}, {"err", e.what()}});
        }
      }
    }
    // Start clean: recovery consumed every pending claim, and history
    // must not replay twice.
    journal_->snapshot({});
  }
  listener_.emplace(net::Listener::open(opts_.endpoint));
  ep_ = listener_->endpoint();
  if (opts_.admin_endpoint) {
    const auto or_none = [](const std::string& v) {
      return v.empty() ? std::string("(none)") : v;
    };
    net::AdminContext ctx{opts_.trace_sink,
                          {{"mode", "socket"},
                           {"endpoint", ep_.to_string()},
                           {"lanes", std::to_string(opts_.lanes)},
                           {"cache_dir", or_none(opts_.cache_dir)},
                           {"journal", or_none(opts_.journal_path)}},
                          Clock::now()};
    admin_.emplace(*reg_, std::move(ctx));
    admin_ep_ =
        admin_->listen(loop_, net::Listener::open(*opts_.admin_endpoint));
  }
}

void SocketServer::run() {
  Run state(*this, effective_lanes(opts_.lanes));
  logx::info("server_listening",
             {{"endpoint", ep_.to_string()},
              {"lanes", static_cast<unsigned>(state.lanes.size())}});
  loop_.listen(std::move(*listener_), state, opts_.idle_timeout_ms);
  listener_.reset();
  state.counters.ready.set(1);  // /healthz flips to "ok" here
  loop_.run();
  state.stop_lanes();
  // Completions that raced with the drain have no connection left: this
  // counts them as dropped.
  state.deliver_completions();
  state.counters.ready.set(0);
  logx::info("server_stopped", {});
}

}  // namespace distapx::service
