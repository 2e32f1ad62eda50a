#include "support/trace.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/log.hpp"

namespace distapx::trace {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t ns_between(SteadyClock::time_point a,
                         SteadyClock::time_point b) noexcept {
  return b > a ? static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                         .count())
               : 0;
}

std::uint64_t wall_unix_ms() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

bool env_disables_tracing() noexcept {
  const char* v = std::getenv("DISTAPX_TRACE");
  if (v == nullptr) return false;
  return std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
         std::strcmp(v, "false") == 0;
}

std::atomic<bool>& enabled_flag() noexcept {
  // First use reads the environment once; set_enabled overrides later.
  static std::atomic<bool> flag{!env_disables_tracing()};
  return flag;
}

thread_local Context g_context;

// ---- little-endian scalar packing (encoding only; never on the wire
// protocol — slots live in process memory, but a fixed byte order keeps
// encode/decode trivially symmetric) ---------------------------------------

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

bool get_u64(std::string_view& in, std::uint64_t& v) noexcept {
  if (in.size() < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  in.remove_prefix(8);
  return true;
}

bool get_u32(std::string_view& in, std::uint32_t& v) noexcept {
  if (in.size() < 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  in.remove_prefix(4);
  return true;
}

bool get_u16(std::string_view& in, std::uint16_t& v) noexcept {
  if (in.size() < 2) return false;
  v = static_cast<std::uint16_t>(
      static_cast<unsigned char>(in[0]) |
      (static_cast<std::uint16_t>(static_cast<unsigned char>(in[1])) << 8));
  in.remove_prefix(2);
  return true;
}

bool get_string(std::string_view& in, std::string& out) noexcept {
  std::uint16_t len = 0;
  if (!get_u16(in, len)) return false;
  if (in.size() < len) return false;
  out.assign(in.substr(0, len));
  in.remove_prefix(len);
  return true;
}

void put_string(std::string& out, std::string_view s) {
  const std::size_t len = std::min<std::size_t>(s.size(), 0xffff);
  put_u16(out, static_cast<std::uint16_t>(len));
  out.append(s.substr(0, len));
}

/// Bytes one span costs in the encoding (u32 parent + 2 u64 times + two
/// length-prefixed strings).
std::size_t span_encoded_size(const Span& s) noexcept {
  return 4 + 8 + 8 + 2 + std::min<std::size_t>(s.name.size(), 0xffff) + 2 +
         std::min<std::size_t>(s.notes.size(), 0xffff);
}

std::string iso_utc(std::uint64_t unix_ms) {
  const time_t secs = static_cast<time_t>(unix_ms / 1000);
  struct tm tm_utc;
  ::gmtime_r(&secs, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace

bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

// ---- Collector -----------------------------------------------------------

Collector::Collector(std::uint64_t id, std::string endpoint)
    : id_(id), endpoint_(std::move(endpoint)), t0_(SteadyClock::now()) {
  trace_.id = id_;
  trace_.endpoint = endpoint_;
  trace_.start_unix_ms = wall_unix_ms();
}

std::uint32_t Collector::begin(std::string_view name, std::uint32_t parent) {
  const std::uint64_t start = ns_between(t0_, SteadyClock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  if (trace_.spans.size() >= kMaxSpansPerTrace) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.id = static_cast<std::uint32_t>(trace_.spans.size() + 1);
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  trace_.spans.push_back(std::move(s));
  return trace_.spans.back().id;
}

void Collector::end(std::uint32_t span) noexcept {
  if (span == 0) return;
  const std::uint64_t now = ns_between(t0_, SteadyClock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  if (span <= trace_.spans.size()) trace_.spans[span - 1].end_ns = now;
}

void Collector::annotate(std::uint32_t span, std::string_view key,
                         std::string_view value) {
  if (span == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (span > trace_.spans.size()) return;
  std::string& notes = trace_.spans[span - 1].notes;
  if (!notes.empty()) notes += ' ';
  notes.append(key);
  notes += '=';
  notes.append(value);
}

void Collector::annotate(std::uint32_t span, std::string_view key,
                         std::uint64_t value) {
  annotate(span, key, std::to_string(value));
}

std::uint64_t Collector::elapsed_ns() const noexcept {
  return ns_between(t0_, SteadyClock::now());
}

Trace Collector::snapshot() const {
  const std::uint64_t now = ns_between(t0_, SteadyClock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  Trace t = trace_;
  t.duration_ns = now;
  t.dropped_spans = dropped_;
  return t;
}

Trace Collector::finish() {
  const std::uint64_t now = ns_between(t0_, SteadyClock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  for (Span& s : trace_.spans) {
    if (s.end_ns == 0) s.end_ns = now;
  }
  trace_.duration_ns = now;
  trace_.dropped_spans = dropped_;
  return std::move(trace_);
}

// ---- thread-local context ------------------------------------------------

Context current() noexcept { return g_context; }

ContextGuard::ContextGuard(Context ctx) noexcept : prev_(g_context) {
  g_context = ctx;
}

ContextGuard::~ContextGuard() { g_context = prev_; }

ScopedSpan::ScopedSpan(std::string_view name) noexcept
    : collector_(g_context.collector), prev_(g_context) {
  if (collector_ == nullptr) return;
  span_ = collector_->begin(name, g_context.parent);
  if (span_ != 0) g_context = Context{collector_, span_};
}

ScopedSpan::~ScopedSpan() {
  if (collector_ == nullptr) return;
  collector_->end(span_);
  g_context = prev_;
}

void ScopedSpan::annotate(std::string_view key, std::string_view value) {
  if (collector_ != nullptr) collector_->annotate(span_, key, value);
}

void ScopedSpan::annotate(std::string_view key, std::uint64_t value) {
  annotate(key, std::to_string(value));
}

void annotate_current(std::string_view key, std::string_view value) {
  if (g_context.collector != nullptr && g_context.parent != 0) {
    g_context.collector->annotate(g_context.parent, key, value);
  }
}

void annotate_current(std::string_view key, std::uint64_t value) {
  annotate_current(key, std::to_string(value));
}

// ---- encoding ------------------------------------------------------------

std::string encode_trace(const Trace& t, std::uint64_t stamp,
                         std::size_t max_bytes) {
  std::string out;
  out.reserve(std::min<std::size_t>(max_bytes, 4096));
  put_u64(out, stamp);
  put_u64(out, t.id);
  put_u64(out, t.start_unix_ms);
  put_u64(out, t.duration_ns);
  put_string(out, t.endpoint);
  // Span count and the dropped tally are patched after the cut is known.
  const std::size_t count_pos = out.size();
  put_u32(out, 0);  // encoded span count
  put_u32(out, 0);  // dropped spans (collector drops + encoding cut)
  std::uint32_t encoded = 0;
  for (const Span& s : t.spans) {
    if (out.size() + span_encoded_size(s) > max_bytes) break;
    put_u32(out, s.parent);
    put_u64(out, s.start_ns);
    put_u64(out, s.end_ns);
    put_string(out, s.name);
    put_string(out, s.notes);
    ++encoded;
  }
  const std::uint32_t dropped =
      t.dropped_spans +
      static_cast<std::uint32_t>(t.spans.size() - encoded);
  std::string patch;
  put_u32(patch, encoded);
  put_u32(patch, dropped);
  out.replace(count_pos, patch.size(), patch);
  return out;
}

bool decode_trace(std::string_view bytes, Trace& out,
                  std::uint64_t* stamp_out) {
  std::string_view in = bytes;
  std::uint64_t stamp = 0;
  Trace t;
  std::uint32_t count = 0;
  if (!get_u64(in, stamp) || !get_u64(in, t.id) ||
      !get_u64(in, t.start_unix_ms) || !get_u64(in, t.duration_ns) ||
      !get_string(in, t.endpoint) || !get_u32(in, count) ||
      !get_u32(in, t.dropped_spans)) {
    return false;
  }
  if (count > kMaxSpansPerTrace) return false;
  t.spans.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Span s;
    s.id = i + 1;
    if (!get_u32(in, s.parent) || !get_u64(in, s.start_ns) ||
        !get_u64(in, s.end_ns) || !get_string(in, s.name) ||
        !get_string(in, s.notes)) {
      return false;
    }
    if (s.parent > count) return false;
    t.spans.push_back(std::move(s));
  }
  out = std::move(t);
  if (stamp_out != nullptr) *stamp_out = stamp;
  return true;
}

// ---- TraceSink -----------------------------------------------------------

TraceSink::TraceSink(SinkOptions opts) : opts_(opts) {
  if (opts_.recent_slots == 0) opts_.recent_slots = 1;
  if (opts_.slot_bytes < 256) opts_.slot_bytes = 256;
  // One leading word carries the encoded byte length.
  words_per_slot_ = 1 + (opts_.slot_bytes + 7) / 8;
  ring_ = std::vector<Slot>(opts_.recent_slots);
  for (Slot& s : ring_) {
    s.words =
        std::make_unique<std::atomic<std::uint64_t>[]>(words_per_slot_);
  }
}

void TraceSink::write_slot(Slot& slot, const std::string& encoded) const {
  // Claim the stamp: CAS even -> odd. A concurrent writer on this very
  // slot (only possible after lapping the whole ring mid-write, or in the
  // slowest-K tables where the writer mutex already prevents it) makes us
  // spin briefly instead of interleaving stores.
  std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  for (;;) {
    if ((seq & 1) == 0 &&
        slot.seq.compare_exchange_weak(seq, seq + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      break;
    }
    if (seq & 1) seq = slot.seq.load(std::memory_order_relaxed);
  }
  // The acquire half of the CAS keeps these stores from hoisting above
  // the odd stamp; the release store below keeps them from sinking past
  // the even one. Readers reject any copy whose two stamp loads disagree.
  slot.words[0].store(static_cast<std::uint64_t>(encoded.size()),
                      std::memory_order_relaxed);
  std::size_t w = 1;
  for (std::size_t off = 0; off < encoded.size(); off += 8, ++w) {
    std::uint64_t word = 0;
    const std::size_t n = std::min<std::size_t>(8, encoded.size() - off);
    std::memcpy(&word, encoded.data() + off, n);
    slot.words[w].store(word, std::memory_order_relaxed);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
}

bool TraceSink::read_slot(const Slot& slot, std::string& out) const {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0) return false;  // never written
    if (s1 & 1) continue;       // writer mid-copy; retry
    const std::uint64_t len = slot.words[0].load(std::memory_order_relaxed);
    if (len > opts_.slot_bytes) return false;
    out.resize(len);
    std::size_t w = 1;
    for (std::size_t off = 0; off < len; off += 8, ++w) {
      const std::uint64_t word =
          slot.words[w].load(std::memory_order_relaxed);
      const std::size_t n = std::min<std::size_t>(8, len - off);
      std::memcpy(out.data() + off, &word, n);
    }
    // The copy is only good if no writer touched the slot in between:
    // loads above may not sink past this fence, and the stamp must match.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) == s1) return true;
  }
  return false;  // persistently contended; skip this slot
}

TraceSink::SlowTable& TraceSink::table_for(const std::string& endpoint) {
  const std::lock_guard<std::mutex> lock(tables_mu_);
  auto it = tables_.find(endpoint);
  if (it == tables_.end()) {
    auto table = std::make_unique<SlowTable>();
    table->slots = std::vector<Slot>(opts_.slowest_per_endpoint);
    for (Slot& s : table->slots) {
      s.words =
          std::make_unique<std::atomic<std::uint64_t>[]>(words_per_slot_);
    }
    table->durations = std::make_unique<std::atomic<std::uint64_t>[]>(
        opts_.slowest_per_endpoint);
    it = tables_.emplace(endpoint, std::move(table)).first;
  }
  return *it->second;
}

void TraceSink::publish(const Trace& t) {
  const std::uint64_t stamp =
      published_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string encoded = encode_trace(t, stamp, opts_.slot_bytes);
  const std::uint64_t slot_index =
      head_.fetch_add(1, std::memory_order_relaxed) % ring_.size();
  write_slot(ring_[slot_index], encoded);

  if (opts_.slowest_per_endpoint == 0) return;
  SlowTable& table = table_for(t.endpoint);
  // Fast reject without the writer mutex: table full and this trace is no
  // slower than the slowest-K floor.
  if (table.filled.load(std::memory_order_relaxed) >=
          opts_.slowest_per_endpoint &&
      t.duration_ns <= table.floor.load(std::memory_order_relaxed)) {
    return;
  }
  const std::lock_guard<std::mutex> lock(table.writer_mu);
  std::size_t victim = 0;
  std::uint64_t victim_duration = ~std::uint64_t{0};
  for (std::size_t i = 0; i < table.slots.size(); ++i) {
    const std::uint64_t d =
        table.durations[i].load(std::memory_order_relaxed);
    if (d == 0) {  // empty slot wins outright
      victim = i;
      victim_duration = 0;
      break;
    }
    if (d < victim_duration) {
      victim = i;
      victim_duration = d;
    }
  }
  if (victim_duration != 0 && t.duration_ns <= victim_duration) return;
  write_slot(table.slots[victim], encoded);
  table.durations[victim].store(t.duration_ns == 0 ? 1 : t.duration_ns,
                                std::memory_order_relaxed);
  std::size_t filled = 0;
  std::uint64_t floor = ~std::uint64_t{0};
  for (std::size_t i = 0; i < table.slots.size(); ++i) {
    const std::uint64_t d =
        table.durations[i].load(std::memory_order_relaxed);
    if (d == 0) continue;
    ++filled;
    floor = std::min(floor, d);
  }
  table.filled.store(filled, std::memory_order_relaxed);
  table.floor.store(filled >= table.slots.size() ? floor : 0,
                    std::memory_order_relaxed);
}

std::vector<Trace> TraceSink::recent() const {
  std::vector<std::pair<std::uint64_t, Trace>> stamped;
  stamped.reserve(ring_.size());
  std::string bytes;
  for (const Slot& slot : ring_) {
    if (!read_slot(slot, bytes)) continue;
    Trace t;
    std::uint64_t stamp = 0;
    if (!decode_trace(bytes, t, &stamp)) continue;
    stamped.emplace_back(stamp, std::move(t));
  }
  std::sort(stamped.begin(), stamped.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Trace> out;
  out.reserve(stamped.size());
  for (auto& [stamp, t] : stamped) out.push_back(std::move(t));
  return out;
}

std::vector<std::pair<std::string, std::vector<Trace>>> TraceSink::slowest()
    const {
  std::vector<std::pair<std::string, const SlowTable*>> tables;
  {
    const std::lock_guard<std::mutex> lock(tables_mu_);
    tables.reserve(tables_.size());
    for (const auto& [name, table] : tables_) {
      tables.emplace_back(name, table.get());
    }
  }
  std::vector<std::pair<std::string, std::vector<Trace>>> out;
  std::string bytes;
  for (const auto& [name, table] : tables) {
    std::vector<Trace> traces;
    for (const Slot& slot : table->slots) {
      if (!read_slot(slot, bytes)) continue;
      Trace t;
      if (!decode_trace(bytes, t, nullptr)) continue;
      traces.push_back(std::move(t));
    }
    std::sort(traces.begin(), traces.end(), [](const Trace& a,
                                               const Trace& b) {
      return a.duration_ns != b.duration_ns ? a.duration_ns > b.duration_ns
                                            : a.id < b.id;
    });
    out.emplace_back(name, std::move(traces));
  }
  return out;
}

// ---- rendering -----------------------------------------------------------

std::string format_duration_ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string render_trace_tree(const Trace& t) {
  std::string out = "trace " + std::to_string(t.id) +
                    " endpoint=" + t.endpoint +
                    " start=" + iso_utc(t.start_unix_ms) +
                    " duration=" + format_duration_ms(t.duration_ns) +
                    " spans=" + std::to_string(t.spans.size());
  if (t.dropped_spans != 0) {
    out += " dropped=" + std::to_string(t.dropped_spans);
  }
  out += '\n';
  // Children grouped by parent; within a parent, start order (ties by
  // id, which is start order at the collector).
  std::vector<std::vector<std::uint32_t>> children(t.spans.size() + 1);
  for (const Span& s : t.spans) {
    if (s.parent <= t.spans.size()) children[s.parent].push_back(s.id);
  }
  // The longest name per depth would be nicer, but a fixed pad keeps the
  // renderer single-pass; names are short by convention.
  const auto render = [&](auto&& self, std::uint32_t parent,
                          int depth) -> void {
    for (const std::uint32_t id : children[parent]) {
      const Span& s = t.spans[id - 1];
      out.append(static_cast<std::size_t>(2 * (depth + 1)), ' ');
      out += s.name;
      const std::size_t pad = s.name.size() < 16 ? 16 - s.name.size() : 1;
      out.append(pad, ' ');
      out += format_duration_ms(s.duration_ns(t.duration_ns));
      if (s.end_ns == 0) out += " (open)";
      if (!s.notes.empty()) {
        out += ' ';
        out += s.notes;
      }
      out += '\n';
      self(self, id, depth + 1);
    }
  };
  render(render, 0, 0);
  return out;
}

std::string flatten_spans(const Trace& t) {
  std::string out;
  for (const Span& s : t.spans) {
    if (s.parent != 0) continue;  // top level only
    if (!out.empty()) out += ' ';
    out += s.name;
    out += '=';
    out += format_duration_ms(s.duration_ns(t.duration_ns));
  }
  return out;
}

void finish_and_publish(Collector& collector, TraceSink* sink,
                        std::uint32_t slow_ms) {
  const Trace t = collector.finish();
  if (sink != nullptr) sink->publish(t);
  if (slow_ms != 0 && t.duration_ns > std::uint64_t{slow_ms} * 1'000'000ull) {
    logx::warn("slow_job",
               {{"trace", t.id},
                {"endpoint", t.endpoint},
                {"duration_ms", static_cast<double>(t.duration_ns) / 1e6},
                {"spans", flatten_spans(t)}});
  }
}

std::string render_tracez(const TraceSink& sink) {
  std::string out = "tracez: per-job span traces (text form)\n";
  out += "published_total " + std::to_string(sink.published_total()) + '\n';
  const std::vector<Trace> recent = sink.recent();
  out += "\n== recent traces (newest first, " +
         std::to_string(recent.size()) + " retained) ==\n";
  for (const Trace& t : recent) {
    out += '\n';
    out += render_trace_tree(t);
  }
  for (const auto& [endpoint, traces] : sink.slowest()) {
    out += "\n== slowest endpoint=" + endpoint + " (" +
           std::to_string(traces.size()) + " retained) ==\n";
    for (const Trace& t : traces) {
      out += '\n';
      out += render_trace_tree(t);
    }
  }
  return out;
}

}  // namespace distapx::trace
