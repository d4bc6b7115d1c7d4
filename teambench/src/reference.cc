#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>

namespace teambench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Weight of edge (u, v) in the query's search graph.
double SearchWeight(const ExpertNetwork& net, const QuerySpec& query, NodeId u,
                    NodeId v, double w) {
  if (query.strategy == RankingStrategy::kCC) return w;
  return query.gamma * (net.InverseAuthority(u) + net.InverseAuthority(v)) +
         2.0 * (1.0 - query.gamma) * w;
}

/// beta(v) of the per-skill cost alpha*DIST + beta.
double Beta(const ExpertNetwork& net, const QuerySpec& query, NodeId v) {
  const double inv = net.InverseAuthority(v);
  switch (query.strategy) {
    case RankingStrategy::kCC:
      return 0.0;
    case RankingStrategy::kCACC:
      return -query.gamma * inv;
    case RankingStrategy::kSACACC:
      return (1.0 - query.lambda) * (-query.gamma * inv) + query.lambda * inv;
  }
  return 0.0;
}

double Alpha(const QuerySpec& query) {
  return query.strategy == RankingStrategy::kSACACC ? 1.0 - query.lambda : 1.0;
}

/// label[r] = min over seeds v of (seed[v] + DIST(v, r)) in the search graph.
std::vector<double> MultiSourceDijkstra(const ExpertNetwork& net,
                                        const QuerySpec& query,
                                        const std::vector<double>& seed) {
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  std::vector<double> label = seed;
  for (NodeId v = 0; v < label.size(); ++v) {
    if (label[v] != kInf) heap.emplace(label[v], v);
  }
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > label[u]) continue;
    for (const teamdisc::Neighbor& nb : net.graph().Neighbors(u)) {
      const double next = d + SearchWeight(net, query, u, nb.node, nb.weight);
      if (next < label[nb.node]) {
        label[nb.node] = next;
        heap.emplace(next, nb.node);
      }
    }
  }
  return label;
}

/// Component id of every node (breadth-first over G).
std::vector<uint32_t> Components(const ExpertNetwork& net) {
  const NodeId n = net.num_experts();
  std::vector<uint32_t> comp(n, std::numeric_limits<uint32_t>::max());
  uint32_t next = 0;
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    if (comp[s] != std::numeric_limits<uint32_t>::max()) continue;
    comp[s] = next;
    queue.assign(1, s);
    for (size_t i = 0; i < queue.size(); ++i) {
      for (const teamdisc::Neighbor& nb : net.graph().Neighbors(queue[i])) {
        if (comp[nb.node] == std::numeric_limits<uint32_t>::max()) {
          comp[nb.node] = next;
          queue.push_back(nb.node);
        }
      }
    }
    ++next;
  }
  return comp;
}

bool Holds(const ExpertNetwork& net, NodeId v, SkillId skill) {
  const auto& skills = net.expert(v).skills;
  return std::binary_search(skills.begin(), skills.end(), skill);
}

/// Per-root cost of one skill: kInf where no holder is reachable.
std::vector<double> SkillCosts(const ExpertNetwork& net, SkillId skill,
                               const QuerySpec& query,
                               const std::vector<uint32_t>& comp) {
  const NodeId n = net.num_experts();
  const double alpha = Alpha(query);
  std::vector<double> cost(n, kInf);
  if (alpha > 0.0) {
    std::vector<double> seed(n, kInf);
    for (NodeId v = 0; v < n; ++v) {
      if (Holds(net, v, skill)) seed[v] = Beta(net, query, v) / alpha;
    }
    const std::vector<double> label = MultiSourceDijkstra(net, query, seed);
    for (NodeId r = 0; r < n; ++r) {
      if (label[r] != kInf) cost[r] = alpha * label[r];
    }
  } else {
    // alpha = 0 (SA-CA-CC at lambda = 1): distance drops out; any holder in
    // the root's component costs beta(v) = a'(v).
    std::map<uint32_t, double> best;
    for (NodeId v = 0; v < n; ++v) {
      if (!Holds(net, v, skill)) continue;
      auto [it, fresh] = best.emplace(comp[v], Beta(net, query, v));
      if (!fresh) it->second = std::min(it->second, Beta(net, query, v));
    }
    for (NodeId r = 0; r < n; ++r) {
      auto it = best.find(comp[r]);
      if (it != best.end()) cost[r] = it->second;
    }
  }
  // Root-holds-skill rule: the root covers the skill itself.
  for (NodeId r = 0; r < n; ++r) {
    if (!Holds(net, r, skill)) continue;
    cost[r] = query.strategy == RankingStrategy::kSACACC
                  ? query.lambda * net.InverseAuthority(r)
                  : 0.0;
  }
  return cost;
}

/// Edge weight between u and v in `net`, kInf when they are not adjacent.
double EdgeWeightOf(const ExpertNetwork& net, NodeId u, NodeId v) {
  for (const teamdisc::Neighbor& nb : net.graph().Neighbors(u)) {
    if (nb.node == v) return nb.weight;
  }
  return kInf;
}

template <typename... Args>
std::string Describe(const char* format, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

}  // namespace

ProxyOptimum ReferenceProxyOptimum(const ExpertNetwork& net,
                                   const std::vector<SkillId>& skills,
                                   const QuerySpec& query) {
  const NodeId n = net.num_experts();
  const std::vector<uint32_t> comp =
      Alpha(query) > 0.0 ? std::vector<uint32_t>() : Components(net);
  std::vector<double> total(n, 0.0);
  for (SkillId skill : skills) {
    const std::vector<double> cost = SkillCosts(net, skill, query, comp);
    for (NodeId r = 0; r < n; ++r) total[r] += cost[r];
  }
  ProxyOptimum best;
  for (NodeId r = 0; r < n; ++r) {
    if (total[r] == kInf) continue;
    if (!best.feasible || total[r] < best.cost) {
      best.feasible = true;
      best.cost = total[r];
      best.root = r;
    }
  }
  return best;
}

double ObjectiveOf(const ExpertNetwork& net, const QuerySpec& query,
                   const std::vector<NodeId>& members,
                   const std::vector<NodeId>& holders, double cc) {
  const std::set<NodeId> holder_set(holders.begin(), holders.end());
  double ca = 0.0;
  for (NodeId v : members) {
    if (holder_set.count(v) == 0) ca += net.InverseAuthority(v);
  }
  double sa = 0.0;
  for (NodeId v : holder_set) sa += net.InverseAuthority(v);
  const double ca_cc = query.gamma * ca + (1.0 - query.gamma) * cc;
  switch (query.strategy) {
    case RankingStrategy::kCC:
      return cc;
    case RankingStrategy::kCACC:
      return ca_cc;
    case RankingStrategy::kSACACC:
      return query.lambda * sa + (1.0 - query.lambda) * ca_cc;
  }
  return cc;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max(std::fabs(a), std::fabs(b)) + 1e-12;
}

std::string CheckWireTeam(const ExpertNetwork& net, const QuerySpec& query,
                          const std::vector<std::string>& distinct_skills,
                          const WireTeam& team) {
  const NodeId n = net.num_experts();
  if (team.members.empty()) return "team has no members";
  std::vector<NodeId> members = team.members;
  std::sort(members.begin(), members.end());
  if (std::adjacent_find(members.begin(), members.end()) != members.end()) {
    return "a member is listed twice";
  }
  if (members.back() >= n) return "member id outside the network";

  // Each requested skill exactly once, to a member holding it.
  std::map<std::string, int> assigned;
  std::vector<NodeId> holders;
  for (const auto& [skill, expert] : team.assignments) {
    if (++assigned[skill] > 1) return "skill '" + skill + "' assigned twice";
    if (!std::binary_search(members.begin(), members.end(), expert)) {
      return "skill '" + skill + "' assigned to a non-member";
    }
    const SkillId id = net.skills().Find(skill);
    if (id == teamdisc::kInvalidSkill || !Holds(net, expert, id)) {
      return "skill '" + skill + "' assigned to an expert who lacks it";
    }
    holders.push_back(expert);
  }
  for (const std::string& skill : distinct_skills) {
    if (assigned.count(skill) == 0) return "skill '" + skill + "' not assigned";
  }
  if (assigned.size() != distinct_skills.size()) {
    return "a skill that was not requested is assigned";
  }

  // Member-induced subgraph: connectivity, MST weight (Kruskal) and total.
  std::vector<teamdisc::Edge> induced;
  for (NodeId u : members) {
    for (const teamdisc::Neighbor& nb : net.graph().Neighbors(u)) {
      if (u < nb.node &&
          std::binary_search(members.begin(), members.end(), nb.node)) {
        induced.push_back({u, nb.node, nb.weight});
      }
    }
  }
  std::sort(induced.begin(), induced.end(),
            [](const teamdisc::Edge& a, const teamdisc::Edge& b) {
              return a.weight < b.weight;
            });
  std::map<NodeId, NodeId> parent;
  for (NodeId v : members) parent[v] = v;
  auto find = [&](NodeId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  double mst = 0.0, all = 0.0;
  size_t joined = 0;
  for (const teamdisc::Edge& e : induced) {
    all += e.weight;
    const NodeId a = find(e.u), b = find(e.v);
    if (a == b) continue;
    parent[a] = b;
    mst += e.weight;
    ++joined;
  }
  if (joined + 1 != members.size()) return "members are not connected";

  const double lo = ObjectiveOf(net, query, members, holders, mst);
  const double hi = ObjectiveOf(net, query, members, holders, all);
  // The wire prints objectives with six decimals.
  const double slack = 5e-7 + 1e-9 * std::fabs(hi);
  if (team.objective < lo - slack || team.objective > hi + slack) {
    return Describe("objective %.9g outside its MST/all-edges bounds [%.9g, %.9g]",
                    team.objective, lo, hi);
  }
  return "";
}

std::string CheckTeamObjective(const ExpertNetwork& net, const QuerySpec& query,
                               const teamdisc::Team& team, double reported) {
  double cc = 0.0;
  for (const teamdisc::Edge& e : team.edges) {
    const double w = EdgeWeightOf(net, e.u, e.v);
    if (w == kInf) return "team edge is not a network edge";
    if (w != e.weight) return "team edge carries a weight the network lacks";
    cc += w;
  }
  std::vector<NodeId> holders;
  for (const teamdisc::SkillAssignment& a : team.assignments) {
    holders.push_back(a.expert);
  }
  const double expected = ObjectiveOf(net, query, team.nodes, holders, cc);
  if (!NearlyEqual(reported, expected)) {
    return Describe("objective %.17g, recomputed %.17g", reported, expected);
  }
  return "";
}

}  // namespace teambench
