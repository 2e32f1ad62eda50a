#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "coloring/linial.hpp"
#include "coloring/rand_coloring.hpp"
#include "graph/generators.hpp"
#include "graph/line_graph.hpp"
#include "matching/proposal.hpp"
#include "maxis/layered_maxis.hpp"
#include "mis/ghaffari_nmis.hpp"
#include "mis/luby.hpp"
#include "sim/aggregation.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "support/assert.hpp"
#include "support/fingerprint.hpp"

namespace distapx {
namespace {

TEST(Message, BitAccounting) {
  sim::Message m(3);
  m.push(5, 4).push(1, 1);
  EXPECT_EQ(m.type(), 3u);
  EXPECT_EQ(m.num_fields(), 2u);
  EXPECT_EQ(m.field(0), 5u);
  EXPECT_EQ(m.field(1), 1u);
  EXPECT_EQ(m.total_bits(), sim::Message::kTypeBits + 5);
}

TEST(Message, RejectsOverflowingField) {
  sim::Message m(0);
  EXPECT_THROW(m.push(16, 4), EnsureError);
  EXPECT_THROW(m.push(1, 0), EnsureError);
  m.push(~std::uint64_t{0}, 64);  // full width is fine
}

TEST(Message, RealFields) {
  sim::Message m(1);
  m.push_real(0.375, 32);
  EXPECT_DOUBLE_EQ(m.field_real(0), 0.375);
  EXPECT_EQ(m.total_bits(), sim::Message::kTypeBits + 32);
}

TEST(Message, CopiesOwnTheirSpilledFields) {
  sim::Message a(2);
  for (std::uint64_t i = 0; i < 5; ++i) a.push(i, 8);
  sim::Message b = a;
  a.push(9, 8);
  EXPECT_EQ(b.num_fields(), 5u);
  EXPECT_EQ(b.field(4), 4u);
  EXPECT_EQ(a.field(5), 9u);
  b = a;
  EXPECT_EQ(b.num_fields(), 6u);
  EXPECT_EQ(b.total_bits(), a.total_bits());
  const sim::Message c = std::move(a);
  EXPECT_EQ(c.num_fields(), 6u);
  EXPECT_EQ(c.field(5), 9u);
  EXPECT_EQ(a.num_fields(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.total_bits(), sim::Message::kTypeBits);
}

TEST(BandwidthPolicy, Caps) {
  EXPECT_EQ(sim::BandwidthPolicy::local().cap_bits(1000), 0u);
  EXPECT_EQ(sim::BandwidthPolicy::congest(8).cap_bits(1024), 80u);
  EXPECT_EQ(sim::BandwidthPolicy::congest(8).cap_bits(1025), 88u);
}

/// Flood: node 0 starts a wave; every node halts with the round it first
/// heard the wave, i.e. its BFS distance.
class FloodProgram final : public sim::NodeProgram {
 public:
  void init(sim::Ctx& ctx) override {
    if (ctx.id() == 0) {
      ctx.broadcast(sim::Message(1));
      ctx.halt(0);
    }
  }
  void round(sim::Ctx& ctx) override {
    if (!ctx.inbox().empty()) {
      ctx.broadcast(sim::Message(1));
      ctx.halt(ctx.round());
    }
  }
};

TEST(Network, FloodComputesBfsDepth) {
  const Graph g = gen::path(6);
  sim::Network net(g);
  sim::RunOptions opts;
  const auto res = net.run(
      [](NodeId) { return std::make_unique<FloodProgram>(); }, opts);
  EXPECT_TRUE(res.metrics.completed);
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(res.outputs[v], static_cast<std::int64_t>(v));
  }
  EXPECT_EQ(res.metrics.rounds, 5u);
}

TEST(Network, RoundCapStopsRun) {
  // A program that never halts.
  class Stubborn final : public sim::NodeProgram {
    void round(sim::Ctx&) override {}
  };
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.max_rounds = 10;
  const auto res = net.run(
      [](NodeId) { return std::make_unique<Stubborn>(); }, opts);
  EXPECT_FALSE(res.metrics.completed);
  EXPECT_EQ(res.metrics.rounds, 10u);
}

TEST(Network, DeterministicAcrossRuns) {
  // Nodes output a few random bits; same seed must reproduce exactly.
  class RandOut final : public sim::NodeProgram {
    void round(sim::Ctx& ctx) override {
      ctx.halt(static_cast<std::int64_t>(ctx.rng().next() & 0xffff));
    }
  };
  const Graph g = gen::cycle(8);
  sim::RunOptions opts;
  opts.seed = 77;
  sim::Network net(g);
  const auto r1 = net.run(
      [](NodeId) { return std::make_unique<RandOut>(); }, opts);
  const auto r2 = net.run(
      [](NodeId) { return std::make_unique<RandOut>(); }, opts);
  EXPECT_EQ(r1.outputs, r2.outputs);
  opts.seed = 78;
  const auto r3 = net.run(
      [](NodeId) { return std::make_unique<RandOut>(); }, opts);
  EXPECT_NE(r1.outputs, r3.outputs);
}

TEST(Network, BandwidthEnforcement) {
  // A program that sends way more than O(log n) bits on one edge.
  class Chatty final : public sim::NodeProgram {
    void round(sim::Ctx& ctx) override {
      sim::Message m(1);
      for (int i = 0; i < 64; ++i) m.push(0, 64);
      if (ctx.degree() > 0) ctx.send(0, m);
      ctx.halt(0);
    }
  };
  const Graph g = gen::path(4);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, true);
  EXPECT_THROW(net.run([](NodeId) { return std::make_unique<Chatty>(); },
                       opts),
               EnsureError);
  // Unenforced: records the violation instead.
  opts.policy = sim::BandwidthPolicy::congest(8, false);
  const auto res = net.run(
      [](NodeId) { return std::make_unique<Chatty>(); }, opts);
  EXPECT_GT(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
}

/// Sends exactly `bits` declared bits on port 0 in round 1, then halts.
class FixedSender final : public sim::NodeProgram {
 public:
  explicit FixedSender(int bits) : bits_(bits) {}
  void round(sim::Ctx& ctx) override {
    if (ctx.degree() > 0) {
      sim::Message m(1);
      int remaining = bits_ - sim::Message::kTypeBits;
      while (remaining > 0) {
        const int field = std::min(remaining, 64);
        m.push(0, field);
        remaining -= field;
      }
      ctx.send(0, m);
    }
    ctx.halt(0);
  }

 private:
  int bits_;
};

TEST(BandwidthEnforcement, OverSendThrowsWhenEnforcing) {
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, /*enforce=*/true);
  const std::uint32_t cap = opts.policy.cap_bits(g.num_nodes());
  // One bit over the cap is already a violation.
  EXPECT_THROW(net.run(
                   [&](NodeId) {
                     return std::make_unique<FixedSender>(
                         static_cast<int>(cap) + 1);
                   },
                   opts),
               EnsureError);
}

TEST(BandwidthEnforcement, ExactlyAtCapIsLegal) {
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, /*enforce=*/true);
  const std::uint32_t cap = opts.policy.cap_bits(g.num_nodes());
  const auto res = net.run(
      [&](NodeId) {
        return std::make_unique<FixedSender>(static_cast<int>(cap));
      },
      opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.metrics.max_edge_bits, cap);
  EXPECT_EQ(res.metrics.bandwidth_cap, cap);
}

TEST(BandwidthEnforcement, UnenforcedOnlyRecordsTheViolation) {
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, /*enforce=*/false);
  const std::uint32_t cap = opts.policy.cap_bits(g.num_nodes());
  const int sent = static_cast<int>(cap) * 3;
  const auto res = net.run(
      [&](NodeId) { return std::make_unique<FixedSender>(sent); }, opts);
  EXPECT_TRUE(res.metrics.completed);
  // The violation is visible in the metrics, precisely.
  EXPECT_EQ(res.metrics.max_edge_bits, static_cast<std::uint32_t>(sent));
  EXPECT_EQ(res.metrics.bandwidth_cap, cap);
  EXPECT_GT(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
}

TEST(BandwidthEnforcement, LocalPolicyNeverTrips) {
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto res = net.run(
      [&](NodeId) { return std::make_unique<FixedSender>(100000); }, opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.metrics.bandwidth_cap, 0u);
  EXPECT_EQ(res.metrics.max_edge_bits, 100000u);
}

TEST(BandwidthEnforcement, NetworkIsReusableAfterViolation) {
  // An enforcing run that throws must not poison the instance: the next
  // run on the same Network starts from clean transport state.
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(8, /*enforce=*/true);
  const std::uint32_t cap = opts.policy.cap_bits(g.num_nodes());
  EXPECT_THROW(net.run(
                   [&](NodeId) {
                     return std::make_unique<FixedSender>(
                         static_cast<int>(cap) * 2);
                   },
                   opts),
               EnsureError);
  const auto res = net.run(
      [&](NodeId) {
        return std::make_unique<FixedSender>(static_cast<int>(cap));
      },
      opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.metrics.max_edge_bits, cap);
}

TEST(Network, MessagesToHaltedNodesAreDropped) {
  // Path 0 - 1 - 2. Node 0 halts in init; nodes 1 and 2 broadcast a 4-bit
  // message in rounds 1..3 and halt in round 3. Sends to node 0 are
  // dropped, and so is everything sent in round 3, because both receivers
  // have halted by the end of that round.
  class Quick final : public sim::NodeProgram {
   public:
    void init(sim::Ctx& ctx) override {
      if (ctx.id() == 0) ctx.halt(0);
    }
    void round(sim::Ctx& ctx) override {
      EXPECT_NE(ctx.id(), 0u);
      ctx.broadcast(sim::Message(1));
      if (ctx.round() == 3) ctx.halt(1);
    }
  };
  const Graph g = gen::path(3);
  sim::Network net(g);
  sim::RunOptions opts;
  std::uint64_t sampled_messages = 0;
  opts.observer = [&](const sim::RoundSample& s) {
    sampled_messages += s.messages;
  };
  const auto res = net.run(
      [](NodeId) { return std::make_unique<Quick>(); }, opts);
  EXPECT_TRUE(res.metrics.completed);
  EXPECT_EQ(res.metrics.rounds, 3u);
  // Delivered: 1 -> 2 and 2 -> 1 in rounds 1 and 2.
  EXPECT_EQ(res.metrics.messages, 4u);
  EXPECT_EQ(sampled_messages, res.metrics.messages);
  // Dropped sends still cost their bits: 3 sends per round for 3 rounds.
  EXPECT_EQ(res.metrics.total_bits, 3u * 3u * sim::Message::kTypeBits);
}

/// Every node broadcasts its id; every receiver checks that the arrival
/// port names the sender and that each port delivers exactly once.
class IdEcho final : public sim::NodeProgram {
 public:
  void init(sim::Ctx& ctx) override {
    ctx.broadcast(sim::Message(1).push(ctx.id(), 32));
  }
  void round(sim::Ctx& ctx) override {
    std::vector<int> seen(ctx.degree(), 0);
    for (const sim::Delivery& d : ctx.inbox()) {
      EXPECT_LT(d.port, ctx.degree());
      if (d.port >= ctx.degree()) continue;
      EXPECT_EQ(ctx.neighbor(d.port), d.msg.field(0))
          << "at node " << ctx.id();
      ++seen[d.port];
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              static_cast<std::ptrdiff_t>(ctx.degree()));
    ctx.halt(static_cast<std::int64_t>(ctx.inbox().size()));
  }
};

TEST(Network, ArrivalPortNamesTheSender) {
  Rng rng(11);
  const Graph sparse = gen::gnp(200, 0.01, rng);
  NodeId isolated = 0;
  for (NodeId v = 0; v < sparse.num_nodes(); ++v) {
    if (sparse.degree(v) == 0) ++isolated;
  }
  ASSERT_GT(isolated, 0u);
  const Graph star = gen::star(40);
  for (const Graph* g : {&sparse, &star}) {
    sim::Network net(*g);
    const auto res = net.run(
        [](NodeId) { return std::make_unique<IdEcho>(); }, {});
    EXPECT_TRUE(res.metrics.completed);
    EXPECT_EQ(res.metrics.messages, 2u * g->num_edges());
    for (NodeId v = 0; v < g->num_nodes(); ++v) {
      EXPECT_EQ(res.outputs[v], g->degree(v));
    }
  }
}

/// LOCAL-model program: every node sends a 9-field message (eight integer
/// fields, then one real) on each port in turn, pushing one more field onto
/// the same Message after each send. Receivers read every field back, so a
/// delivered copy that shared storage with the sender's Message would show
/// the fields pushed after it was sent.
class WideSender final : public sim::NodeProgram {
 public:
  explicit WideSender(const Graph& g) : g_(g) {}

  static constexpr int kBaseBits = sim::Message::kTypeBits + 32 + 7 * 40 + 64;

  void init(sim::Ctx& ctx) override {
    const std::uint64_t id = ctx.id();
    sim::Message m(2);
    m.push(id, 32);
    for (std::uint64_t i = 1; i < 8; ++i) m.push(id * 100 + i, 40);
    m.push_real(static_cast<double>(id) + 0.25, 64);
    for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
      ctx.send(p, m);
      m.push(p, 32);
    }
  }

  void round(sim::Ctx& ctx) override {
    for (const sim::Delivery& d : ctx.inbox()) {
      const NodeId from = ctx.neighbor(d.port);
      const auto nbrs = g_.neighbors(from);
      const auto sent_on = static_cast<std::uint64_t>(
          std::find_if(nbrs.begin(), nbrs.end(),
                       [&](const HalfEdge& he) { return he.to == ctx.id(); }) -
          nbrs.begin());
      const sim::Message& m = d.msg;
      EXPECT_EQ(m.type(), 2u);
      ASSERT_EQ(m.num_fields(), 9u + sent_on);
      EXPECT_EQ(m.field(0), from);
      for (std::uint64_t i = 1; i < 8; ++i) {
        EXPECT_EQ(m.field(i), from * std::uint64_t{100} + i);
      }
      EXPECT_DOUBLE_EQ(m.field_real(8), static_cast<double>(from) + 0.25);
      for (std::uint64_t k = 0; k < sent_on; ++k) {
        EXPECT_EQ(m.field(9 + k), k);
      }
      EXPECT_EQ(m.total_bits(), kBaseBits + 32 * static_cast<int>(sent_on));
    }
    ctx.halt(static_cast<std::int64_t>(ctx.inbox().size()));
  }

 private:
  const Graph& g_;
};

TEST(Network, WideMessagesSpillAndStayIndependentOfTheSender) {
  Rng rng(12);
  const Graph g = gen::gnp(30, 0.3, rng);
  sim::Network net(g);
  sim::RunOptions local;
  local.policy = sim::BandwidthPolicy::local();
  const auto wide = net.run(
      [&](NodeId) { return std::make_unique<WideSender>(g); }, local);
  EXPECT_TRUE(wide.metrics.completed);
  EXPECT_EQ(wide.metrics.messages, 2u * g.num_edges());
  EXPECT_EQ(wide.metrics.max_edge_bits,
            static_cast<std::uint32_t>(WideSender::kBaseBits +
                                       32 * (g.max_degree() - 1)));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(wide.outputs[v], g.degree(v));
  }

  // The wide run leaves spilled messages behind in the reused buffers; a
  // 1-field program on the same Network must match a fresh Network.
  sim::RunOptions opts;
  opts.seed = 5;
  const auto reused = net.run(make_luby_program(g), opts);
  sim::Network fresh_net(g);
  const auto fresh = fresh_net.run(make_luby_program(g), opts);
  EXPECT_TRUE(reused.metrics.completed);
  EXPECT_EQ(reused.outputs, fresh.outputs);
  EXPECT_EQ(reused.halted, fresh.halted);
  EXPECT_EQ(reused.metrics.rounds, fresh.metrics.rounds);
  EXPECT_EQ(reused.metrics.messages, fresh.metrics.messages);
  EXPECT_EQ(reused.metrics.total_bits, fresh.metrics.total_bits);
  EXPECT_EQ(reused.metrics.max_edge_bits, fresh.metrics.max_edge_bits);
}

TEST(Network, PortsAndNeighborsConsistent) {
  class PortCheck final : public sim::NodeProgram {
    void round(sim::Ctx& ctx) override {
      for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
        const NodeId nbr = ctx.neighbor(p);
        EXPECT_EQ(ctx.port_of(nbr), p);
        EXPECT_NE(ctx.edge_of(p), kInvalidEdge);
      }
      EXPECT_EQ(ctx.port_of(ctx.id()), UINT32_MAX);
      ctx.halt(0);
    }
  };
  Rng rng(5);
  const Graph g = gen::gnp(20, 0.3, rng);
  sim::Network net(g);
  sim::RunOptions opts;
  const auto res = net.run(
      [](NodeId) { return std::make_unique<PortCheck>(); }, opts);
  EXPECT_TRUE(res.metrics.completed);
}

// ---- golden engine rows ---------------------------------------------------
//
// Pins the exact metrics and outputs of the production node programs on two
// fixed n = 2000 graphs. The values were recorded from the engine before its
// transport was flattened (twin-port table, compact messages); any change to
// delivery order, per-edge accounting or RNG wiring shows up here as a
// mismatch. On a mismatch the test prints the measured table in source form.

struct GoldenRow {
  const char* graph;
  std::uint64_t seed;
  std::uint32_t rounds;
  std::uint64_t messages;
  std::uint64_t total_bits;
  std::uint32_t max_edge_bits;
  std::uint64_t outputs_fp;
};

const Graph& golden_graph(const std::string& name) {
  static const Graph gnp = [] {
    Rng rng(2024);
    return gen::gnp(2000, 0.004, rng);
  }();
  static const Graph regular = [] {
    Rng rng(2025);
    return gen::random_regular(2000, 8, rng);
  }();
  return name == "gnp" ? gnp : regular;
}

const NodeWeights& golden_weights() {
  static const NodeWeights w = [] {
    Rng rng(2026);
    return gen::uniform_node_weights(2000, 1024, rng);
  }();
  return w;
}

GoldenRow golden_row(const GoldenRow& want, const sim::RunMetrics& m,
                     const Fingerprinter& fp) {
  return {want.graph,   want.seed,       m.rounds,          m.messages,
          m.total_bits, m.max_edge_bits, fp.digest().lo};
}

GoldenRow run_program_row(const GoldenRow& want,
                          const sim::ProgramFactory& factory) {
  sim::Network net(golden_graph(want.graph));
  sim::RunOptions opts;
  opts.seed = want.seed;
  const auto r = net.run(factory, opts);
  EXPECT_TRUE(r.metrics.completed);
  Fingerprinter fp;
  for (NodeId v = 0; v < r.outputs.size(); ++v) {
    fp.add_i64(r.outputs[v]).add_bool(r.halted[v]);
  }
  return golden_row(want, r.metrics, fp);
}

GoldenRow coloring_row(const GoldenRow& want, const ColoringResult& r) {
  Fingerprinter fp;
  for (const Color c : r.colors) fp.add_u32(c);
  fp.add_u32(r.num_colors);
  EXPECT_TRUE(is_proper_coloring(golden_graph(want.graph), r.colors));
  return golden_row(want, r.metrics, fp);
}

template <typename Measure>
void check_golden(const char* algo, const std::vector<GoldenRow>& rows,
                  Measure measure) {
  std::string table;
  bool all_match = true;
  for (const GoldenRow& want : rows) {
    const GoldenRow got = measure(want);
    const bool match = got.rounds == want.rounds &&
                       got.messages == want.messages &&
                       got.total_bits == want.total_bits &&
                       got.max_edge_bits == want.max_edge_bits &&
                       got.outputs_fp == want.outputs_fp;
    all_match = all_match && match;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "      {\"%s\", %llu, %u, %llu, %llu, %u, 0x%016llxull},\n",
                  got.graph, static_cast<unsigned long long>(got.seed),
                  got.rounds, static_cast<unsigned long long>(got.messages),
                  static_cast<unsigned long long>(got.total_bits),
                  got.max_edge_bits,
                  static_cast<unsigned long long>(got.outputs_fp));
    table += line;
  }
  EXPECT_TRUE(all_match) << algo << " rows differ; measured:\n" << table;
}

TEST(EngineGolden, Luby) {
  const std::vector<GoldenRow> rows = {
      {"gnp", 1, 10, 23077, 515088, 26, 0xf82223e9343ad0d6ull},
      {"gnp", 7, 10, 22941, 512000, 26, 0x320ee8fa1c244b0cull},
      {"regular", 1, 12, 23395, 518504, 26, 0xa1eb3e62ef3143ebull},
      {"regular", 7, 13, 22994, 513064, 26, 0x261835455dc82dafull},
  };
  check_golden("luby", rows, [](const GoldenRow& want) {
    return run_program_row(
        want, make_luby_program(golden_graph(want.graph)));
  });
}

TEST(EngineGolden, Nmis) {
  const std::vector<GoldenRow> rows = {
      {"gnp", 1, 45, 70524, 631412, 10, 0x4098526ab088e366ull},
      {"gnp", 7, 61, 74253, 661468, 10, 0xc9ab66ea0261faacull},
      {"regular", 1, 43, 76511, 684696, 10, 0xa223c5cec2dfb7c7ull},
      {"regular", 7, 45, 75741, 678876, 10, 0x0b488fcba7fdccf2ull},
  };
  check_golden("nmis", rows, [](const GoldenRow& want) {
    return run_program_row(
        want, make_nmis_program(golden_graph(want.graph),
                                NmisParams{}));
  });
}

TEST(EngineGolden, MaxisAlg2) {
  const std::vector<GoldenRow> rows = {
      {"gnp", 1, 18, 36320, 543934, 26, 0x286abebf17f0d7f8ull},
      {"gnp", 7, 25, 35616, 535698, 26, 0xfe35eb129de67ce4ull},
      {"regular", 1, 25, 36032, 540634, 26, 0x036ccb323ed1c229ull},
      {"regular", 7, 21, 36429, 545526, 26, 0x3e0c21e0cfa223f1ull},
  };
  check_golden("maxis-alg2", rows, [](const GoldenRow& want) {
    const NodeWeights& w = golden_weights();
    return run_program_row(
        want, make_layered_maxis_program(
                  golden_graph(want.graph), w,
                  *std::max_element(w.begin(), w.end())));
  });
}

TEST(EngineGolden, LinialColoring) {
  // Deterministic: the seed column is unused.
  const std::vector<GoldenRow> rows = {
      {"gnp", 0, 1351, 21645722, 324685830, 15, 0x4f84e951f8e01f47ull},
      {"regular", 0, 281, 4496000, 58480000, 15, 0x5e6aa06bbd7e72fbull},
  };
  check_golden("linial", rows, [](const GoldenRow& want) {
    return coloring_row(
        want, linial_coloring(golden_graph(want.graph)));
  });
}

TEST(EngineGolden, RandomColoring) {
  const std::vector<GoldenRow> rows = {
      {"gnp", 1, 10, 25608, 293310, 9, 0x65388ca9f484ec7aull},
      {"gnp", 7, 10, 26420, 297306, 9, 0x9f4510c55e38b073ull},
      {"regular", 1, 12, 29530, 282352, 8, 0x1228dcf8d0ad64f0ull},
      {"regular", 7, 16, 29906, 284496, 8, 0x4f10b8b95d7e65a8ull},
  };
  check_golden("random coloring", rows, [](const GoldenRow& want) {
    return coloring_row(
        want,
        randomized_coloring(golden_graph(want.graph), want.seed));
  });
}

TEST(EngineGolden, Proposal) {
  const std::vector<GoldenRow> rows = {
      {"gnp", 1, 82, 4551, 19868, 4, 0xb4e92adc0a2f52d1ull},
      {"gnp", 7, 115, 4503, 19448, 4, 0xbfd3de41b1df1cc2ull},
      {"regular", 1, 78, 4446, 19548, 4, 0x9b2fbe9bfb59cab7ull},
      {"regular", 7, 111, 4399, 19232, 4, 0x0fdcba3096af64f9ull},
  };
  check_golden("proposal", rows, [](const GoldenRow& want) {
    const auto r = run_proposal_matching(
        golden_graph(want.graph), want.seed);
    Fingerprinter fp;
    for (const EdgeId e : r.matching) fp.add_u32(e);
    fp.add_u32(kInvalidEdge);
    for (const NodeId v : r.unlucky) fp.add_u32(v);
    return golden_row(want, r.metrics, fp);
  });
}

// ---- aggregation engine ---------------------------------------------------

/// One-round program whose output is its first aggregate (sum of neighbor
/// ids) — used to validate the fold machinery in both agent topologies.
class SumIdsProgram final : public sim::AggProgram {
 public:
  std::vector<int> state_bits() const override { return {32}; }
  std::vector<sim::Aggregator> aggregators() const override {
    return {sim::agg_sum(
        [](std::span<const std::uint64_t> s) { return s[0]; }, 40)};
  }
  void init(sim::AggCtx& ctx) override { ctx.state()[0] = ctx.agent(); }
  void round(sim::AggCtx& ctx) override {
    ctx.halt(static_cast<std::int64_t>(ctx.aggregates()[0]));
  }
};

TEST(Aggregation, NodeModeSumsNeighborIds) {
  const Graph g = gen::cycle(5);
  SumIdsProgram prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto res = sim::run_on_nodes(g, prog, opts);
  EXPECT_TRUE(res.metrics.completed);
  for (NodeId v = 0; v < 5; ++v) {
    std::uint64_t expect = 0;
    for (const HalfEdge& he : g.neighbors(v)) expect += he.to;
    EXPECT_EQ(res.outputs[v], static_cast<std::int64_t>(expect));
  }
}

TEST(Aggregation, LineModeMatchesExplicitLineGraph) {
  Rng rng(6);
  const Graph g = gen::gnp(18, 0.25, rng);
  const LineGraph lg(g);

  SumIdsProgram prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto on_line = sim::run_on_line_graph(g, prog, opts);
  // Reference: fold neighbor ids on the explicit line graph.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::uint64_t expect = 0;
    for (const HalfEdge& he : lg.graph().neighbors(lg.line_node(e))) {
      expect += he.to;
    }
    EXPECT_EQ(on_line.outputs[e], static_cast<std::int64_t>(expect))
        << "line node " << e;
  }
}

TEST(Aggregation, LineModeDegrees) {
  Rng rng(7);
  const Graph g = gen::gnp(15, 0.3, rng);
  class DegreeOut final : public sim::AggProgram {
   public:
    std::vector<int> state_bits() const override { return {8}; }
    std::vector<sim::Aggregator> aggregators() const override {
      return {sim::agg_or(
          [](std::span<const std::uint64_t>) { return std::uint64_t{0}; })};
    }
    void init(sim::AggCtx& ctx) override { ctx.state()[0] = 0; }
    void round(sim::AggCtx& ctx) override { ctx.halt(ctx.degree()); }
  };
  DegreeOut prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto res = sim::run_on_line_graph(g, prog, opts);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    EXPECT_EQ(res.outputs[e], g.degree(u) + g.degree(v) - 2);
  }
}

TEST(Aggregation, MinMaxAndBooleanAggregators) {
  const Graph g = gen::star(5);  // center 0
  class MultiAgg final : public sim::AggProgram {
   public:
    std::vector<int> state_bits() const override { return {16}; }
    std::vector<sim::Aggregator> aggregators() const override {
      auto id = [](std::span<const std::uint64_t> s) { return s[0]; };
      return {sim::agg_min(id, 16), sim::agg_max(id, 16),
              sim::agg_and([](std::span<const std::uint64_t> s) {
                return static_cast<std::uint64_t>(s[0] > 0);
              }),
              sim::agg_or([](std::span<const std::uint64_t> s) {
                return static_cast<std::uint64_t>(s[0] == 3);
              })};
    }
    void init(sim::AggCtx& ctx) override {
      ctx.state()[0] = ctx.agent() + 1;  // 1..5
    }
    void round(sim::AggCtx& ctx) override {
      if (ctx.agent() != 0) {
        ctx.halt(0);
        return;
      }
      const auto a = ctx.aggregates();
      EXPECT_EQ(a[0], 2u);  // min neighbor value
      EXPECT_EQ(a[1], 5u);  // max
      EXPECT_EQ(a[2], 1u);  // all > 0
      EXPECT_EQ(a[3], 1u);  // some == 3
      ctx.halt(1);
    }
  };
  MultiAgg prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto res = sim::run_on_nodes(g, prog, opts);
  EXPECT_EQ(res.outputs[0], 1);
}

TEST(Aggregation, StateWidthValidation) {
  const Graph g = gen::path(3);
  class TooWide final : public sim::AggProgram {
   public:
    std::vector<int> state_bits() const override { return {4}; }
    std::vector<sim::Aggregator> aggregators() const override {
      return {sim::agg_or(
          [](std::span<const std::uint64_t>) { return std::uint64_t{0}; })};
    }
    void init(sim::AggCtx& ctx) override { ctx.state()[0] = 999; }
    void round(sim::AggCtx& ctx) override { ctx.halt(0); }
  };
  TooWide prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  EXPECT_THROW(sim::run_on_nodes(g, prog, opts), EnsureError);
}

TEST(Aggregation, NaiveCongestionFormula) {
  const Graph s = gen::star(9);  // center degree 8
  EXPECT_EQ(sim::naive_line_congestion_bits(s, 10), 70u);  // (8-1)*10
  const Graph p = gen::path(3);
  EXPECT_EQ(sim::naive_line_congestion_bits(p, 10), 10u);  // (2-1)*10
}

TEST(Aggregation, CongestionStaysBoundedOnLineGraph) {
  // The Theorem 2.8 claim: line-graph execution under aggregation keeps
  // per-edge bits independent of Δ.
  Rng rng(8);
  const Graph g = gen::star(60);  // Δ = 59, line graph is K_59
  SumIdsProgram prog;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::congest(32);
  const auto res = sim::run_on_line_graph(g, prog, opts);
  EXPECT_LE(res.metrics.max_edge_bits, res.metrics.bandwidth_cap);
  EXPECT_GT(sim::naive_line_congestion_bits(g, 32),
            res.metrics.bandwidth_cap);
}


TEST(Aggregation, NaiveLineModeSameOutputsHigherCost) {
  // The naive transport runs the identical algorithm (same per-agent RNG
  // streams), so outputs match the Thm 2.8 execution exactly; only the
  // congestion accounting differs.
  Rng rng(9);
  const Graph g = gen::gnp(30, 0.2, rng);
  SumIdsProgram prog_a, prog_b;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto agg = sim::run_on_line_graph(g, prog_a, opts);
  const auto naive = sim::run_on_line_graph_naive(g, prog_b, opts);
  EXPECT_EQ(agg.outputs, naive.outputs);
  EXPECT_EQ(agg.super_rounds, naive.super_rounds);
  EXPECT_GT(naive.metrics.max_edge_bits, agg.metrics.max_edge_bits);
}

TEST(Aggregation, NaiveCostGrowsWithDegree) {
  SumIdsProgram prog_small, prog_big;
  sim::RunOptions opts;
  opts.policy = sim::BandwidthPolicy::local();
  const auto small = sim::run_on_line_graph_naive(gen::star(9), prog_small,
                                                  opts);
  const auto big = sim::run_on_line_graph_naive(gen::star(65), prog_big,
                                                opts);
  EXPECT_GE(big.metrics.max_edge_bits, 7 * small.metrics.max_edge_bits);
}

}  // namespace
}  // namespace distapx
