#include "sim/network.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx::sim {

std::uint32_t BandwidthPolicy::cap_bits(NodeId n) const {
  if (!bounded) return 0;
  // The log term is floored at 8: CONGEST messages hold at least a
  // constant-size word, and O(log n) bounds only bite asymptotically —
  // without the floor, toy graphs (n < 256) would reject legal programs.
  return multiplier *
         std::max<std::uint32_t>(
             8, static_cast<std::uint32_t>(
                    ceil_log2(std::max<NodeId>(n, 2))));
}

NodeId Ctx::num_nodes() const noexcept { return net_->g_->num_nodes(); }
std::uint32_t Ctx::degree() const noexcept { return net_->g_->degree(id_); }
std::uint32_t Ctx::max_degree() const noexcept {
  return net_->g_->max_degree();
}

NodeId Ctx::neighbor(std::uint32_t port) const {
  const auto nbrs = net_->g_->neighbors(id_);
  DISTAPX_ASSERT(port < nbrs.size());
  return nbrs[port].to;
}

std::uint32_t Ctx::port_of(NodeId v) const {
  const auto nbrs = net_->g_->neighbors(id_);
  // Adjacency is sorted by neighbor id (GraphBuilder::build).
  const auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), v,
      [](const HalfEdge& he, NodeId x) { return he.to < x; });
  if (it == nbrs.end() || it->to != v) return UINT32_MAX;
  return static_cast<std::uint32_t>(it - nbrs.begin());
}

EdgeId Ctx::edge_of(std::uint32_t port) const {
  const auto nbrs = net_->g_->neighbors(id_);
  DISTAPX_ASSERT(port < nbrs.size());
  return nbrs[port].edge;
}

std::span<const Delivery> Ctx::inbox() const noexcept {
  const auto begin = net_->inbox_off_[id_];
  const auto end = net_->inbox_off_[id_ + 1];
  return {net_->inbox_store_.data() + begin, net_->inbox_store_.data() + end};
}

void Ctx::send(std::uint32_t port, const Message& m) {
  Network& net = *net_;
  const std::uint32_t base = net.adj_base_[id_];
  DISTAPX_ENSURE_MSG(port < net.adj_base_[id_ + 1] - base,
                     "node " << id_ << " sending on invalid port " << port);
  const std::uint32_t slot = base + port;
  if (net.out_bits_[slot] == 0) net.touched_.push_back(slot);
  net.out_bits_[slot] += static_cast<std::uint32_t>(m.total_bits());
  const NodeId to = net.g_->neighbors(id_)[port].to;
  if (net.halted_[to]) return;  // dropped at the end of the round anyway
  ++net.inbox_fill_[to];
  net.staged_.emplace_back(to, net.twin_[slot], m);
}

void Ctx::broadcast(const Message& m) {
  const std::uint32_t deg = degree();
  for (std::uint32_t p = 0; p < deg; ++p) send(p, m);
}

void Ctx::halt(std::int64_t output) {
  net_->slots_[id_].output = output;
  if (!net_->halted_[id_]) {
    net_->halted_[id_] = 1;
    --net_->live_;
  }
}

Network::Network(const Graph& g) { rebind(g); }

void Network::rebind(const Graph& g) {
  g_ = &g;
  const NodeId n = g.num_nodes();
  // assign()/resize() keep the underlying capacity, so pointing the same
  // Network at a sequence of graphs only ever grows the buffers to the
  // largest graph seen.
  adj_base_.resize(n + 1);
  adj_base_[0] = 0;
  for (NodeId v = 0; v < n; ++v) adj_base_[v + 1] = adj_base_[v] + g.degree(v);

  // Twin ports: both halves of edge e carry its id, so the first half seen
  // parks its slot in first_slot[e] and the second half pairs with it.
  twin_.resize(adj_base_[n]);
  std::vector<std::uint32_t> first_slot(g.num_edges(), UINT32_MAX);
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      const std::uint32_t slot = adj_base_[u] + p;
      std::uint32_t& other = first_slot[nbrs[p].edge];
      if (other == UINT32_MAX) {
        other = slot;
      } else {
        twin_[other] = p;
        twin_[slot] = other - adj_base_[nbrs[p].to];
        DISTAPX_ASSERT(g.neighbors(nbrs[p].to)[twin_[slot]].to == u);
      }
    }
  }

  out_bits_.assign(adj_base_[n], 0);
  inbox_off_.assign(n + 1, 0);
  inbox_fill_.assign(n, 0);
  slots_.resize(n);
  halted_.assign(n, 0);
  staged_.clear();
  touched_.clear();
}

RunResult Network::run(const ProgramFactory& factory, const RunOptions& opts) {
  DISTAPX_ENSURE_MSG(g_ != nullptr, "Network::run on an unbound Network");
  const NodeId n = g_->num_nodes();
  cap_bits_ = opts.policy.cap_bits(n);
  enforce_ = opts.policy.bounded && opts.policy.enforce;

  // Reset run state in place; buffer capacity survives from earlier runs
  // (a previous run may have thrown mid-round, so clear transport state
  // unconditionally).
  staged_.clear();
  touched_.clear();
  std::fill(out_bits_.begin(), out_bits_.end(), 0);
  std::fill(inbox_off_.begin(), inbox_off_.end(), 0);
  std::fill(inbox_fill_.begin(), inbox_fill_.end(), 0);
  std::fill(halted_.begin(), halted_.end(), 0);
  live_ = n;

  const Rng root(opts.seed);
  for (NodeId v = 0; v < n; ++v) {
    auto& slot = slots_[v];
    slot.program = factory(v);
    DISTAPX_ENSURE(slot.program != nullptr);
    slot.rng = root.split(v);
    slot.output = 0;
  }

  RunResult result;
  result.metrics.bandwidth_cap = cap_bits_;

  auto sweep = [&](std::uint32_t round_idx, bool is_init) {
    for (NodeId v = 0; v < n; ++v) {
      if (halted_[v]) continue;
      auto& slot = slots_[v];
      Ctx ctx;
      ctx.net_ = this;
      ctx.id_ = v;
      ctx.round_ = round_idx;
      ctx.rng_ = &slot.rng;
      if (is_init) {
        slot.program->init(ctx);
      } else {
        slot.program->round(ctx);
      }
    }
    const std::uint64_t msgs_before = result.metrics.messages;
    const std::uint64_t bits_before = result.metrics.total_bits;
    deliver_and_account(result.metrics);
    if (opts.observer) {
      RoundSample sample;
      sample.round = round_idx;
      sample.messages = result.metrics.messages - msgs_before;
      sample.bits = result.metrics.total_bits - bits_before;
      sample.nodes_halted = n - live_;
      opts.observer(sample);
    }
  };

  sweep(0, /*is_init=*/true);

  std::uint32_t round = 0;
  while (live_ > 0 && round < opts.max_rounds) {
    ++round;
    sweep(round, /*is_init=*/false);
  }
  result.metrics.rounds = round;
  result.metrics.completed = live_ == 0;

  result.outputs.resize(n);
  result.halted.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    result.outputs[v] = slots_[v].output;
    result.halted[v] = halted_[v] != 0;
  }
  return result;
}

void Network::deliver_and_account(RunMetrics& metrics) {
  // Per-edge bit accounting: only the entries actually written this round.
  for (const std::uint32_t slot : touched_) {
    const std::uint32_t bits = out_bits_[slot];
    metrics.total_bits += bits;
    metrics.max_edge_bits = std::max(metrics.max_edge_bits, bits);
    if (enforce_ && bits > cap_bits_) {
      const NodeId sender = static_cast<NodeId>(
          std::upper_bound(adj_base_.begin(), adj_base_.end(), slot) -
          adj_base_.begin() - 1);
      DISTAPX_ENSURE_MSG(
          false, "CONGEST violation: node "
                     << sender << " sent " << bits
                     << " bits on one edge in one round"
                     << " (cap " << cap_bits_ << ")");
    }
    out_bits_[slot] = 0;
  }
  touched_.clear();

  // Stable counting sort of the staged sends by receiver: send() already
  // counted them, so one prefix pass turns the counts into cursors and one
  // pass over staged_ moves each message into place in send order.
  // Messages addressed to halted nodes are dropped.
  const NodeId n = g_->num_nodes();
  std::uint32_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    inbox_off_[v] = total;
    const std::uint32_t count = halted_[v] ? 0 : inbox_fill_[v];
    inbox_fill_[v] = total;
    total += count;
  }
  inbox_off_[n] = total;
  metrics.messages += total;
  if (inbox_store_.size() < total) inbox_store_.resize(total);
  for (auto& s : staged_) {
    if (halted_[s.to]) continue;
    Delivery& d = inbox_store_[inbox_fill_[s.to]++];
    d.port = s.arrival_port;
    d.msg = std::move(s.msg);
  }
  staged_.clear();
  std::fill(inbox_fill_.begin(), inbox_fill_.end(), 0);
}

}  // namespace distapx::sim
