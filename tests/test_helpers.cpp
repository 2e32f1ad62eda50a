#include "test_helpers.hpp"

#include <bit>
#include <cerrno>

#include "support/assert.hpp"
#include "support/fdio.hpp"

namespace distapx::test {

Weight brute_force_maxis_weight(const Graph& g, const NodeWeights& w) {
  const NodeId n = g.num_nodes();
  DISTAPX_ENSURE(n <= 20);
  std::vector<std::uint32_t> adj(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    adj[u] |= 1u << v;
    adj[v] |= 1u << u;
  }
  Weight best = 0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    Weight total = 0;
    bool ok = true;
    for (std::uint32_t rest = mask; rest != 0 && ok; rest &= rest - 1) {
      const auto v = static_cast<NodeId>(std::countr_zero(rest));
      if ((adj[v] & mask) != 0) ok = false;
      total += w[v];
    }
    if (ok && total > best) best = total;
  }
  return best;
}

namespace {
std::size_t mcm_rec(const Graph& g, EdgeId e, std::uint32_t used_mask) {
  if (e == g.num_edges()) return 0;
  std::size_t best = mcm_rec(g, e + 1, used_mask);
  const auto [u, v] = g.endpoints(e);
  if (((used_mask >> u) & 1) == 0 && ((used_mask >> v) & 1) == 0) {
    best = std::max(best, 1 + mcm_rec(g, e + 1,
                                      used_mask | (1u << u) | (1u << v)));
  }
  return best;
}
}  // namespace

std::size_t brute_force_mcm_size(const Graph& g) {
  DISTAPX_ENSURE(g.num_nodes() <= 32);
  DISTAPX_ENSURE(g.num_edges() <= 48);
  return mcm_rec(g, 0, 0);
}

std::string http_get(const net::Endpoint& ep, const std::string& target) {
  fdio::Fd fd = net::connect_endpoint_retry(ep, 5000);
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(fdio::write_fully(fd.get(), req.data(), req.size()));
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t r = fdio::read_some(fd.get(), buf, sizeof buf);
    if (r > 0) {
      resp.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    return resp;  // EOF (the server closes after the response) or error
  }
}

std::string http_status_line(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string http_body(const std::string& response) {
  const std::size_t blank = response.find("\r\n\r\n");
  return blank == std::string::npos ? std::string()
                                    : response.substr(blank + 4);
}

}  // namespace distapx::test
