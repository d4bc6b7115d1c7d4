// Hand-built networks with optima worked out by hand (every weight and
// inverse authority is dyadic, so the expected costs are exact). Covers ties,
// disconnected components, lambda in {0, 1}, gamma in {0, 1}, and a root
// that holds several skills; plus a few answers the wire checks must accept
// or refuse.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "reference.h"

namespace teambench {

namespace {

struct Node {
  std::vector<std::string> skills;
  double authority;
};

struct Link {
  NodeId u, v;
  double w;
};

ExpertNetwork Build(const std::vector<Node>& nodes,
                    const std::vector<Link>& links) {
  teamdisc::ExpertNetworkBuilder builder;
  for (size_t i = 0; i < nodes.size(); ++i) {
    builder.AddExpert("e" + std::to_string(i), nodes[i].skills,
                      nodes[i].authority);
  }
  for (const Link& l : links) {
    if (!builder.AddEdge(l.u, l.v, l.w).ok()) std::abort();
  }
  return builder.Finish().ValueOrDie();
}

std::vector<SkillId> Ids(const ExpertNetwork& net,
                         const std::vector<std::string>& names) {
  std::vector<SkillId> ids;
  for (const std::string& name : names) ids.push_back(net.skills().Find(name));
  return ids;
}

struct Case {
  const char* name;
  const ExpertNetwork* net;
  std::vector<std::string> skills;
  QuerySpec query;
  bool feasible;
  double cost;
  NodeId root;
};

}  // namespace

std::string RunReferenceSelfTest() {
  using teamdisc::RankingStrategy;
  // Path 0 - 1 - 2; x at both ends (a tie from root 1), y in the middle.
  const ExpertNetwork path =
      Build({{{"x"}, 1}, {{"y"}, 1}, {{"x"}, 1}}, {{0, 1, 1}, {1, 2, 1}});
  // Two components: 0 - 1 and the isolated 2.
  const ExpertNetwork split =
      Build({{{"x"}, 1}, {{}, 1}, {{"y"}, 1}}, {{0, 1, 1}});
  // Triangle; root 0 holds both skills. a' = 1, 0.5, 0.25.
  const ExpertNetwork triangle = Build(
      {{{"x", "y"}, 1}, {{"x"}, 2}, {{"y"}, 4}},
      {{0, 1, 0.5}, {0, 2, 0.5}, {1, 2, 1.0}});
  // Square 0 - 1 - 2 - 3 - 0: the cheap side through 3 has a high-a' node.
  const ExpertNetwork square = Build(
      {{{"x"}, 1}, {{}, 2}, {{"y"}, 4}, {{}, 1}},
      {{0, 1, 1}, {1, 2, 1}, {0, 3, 0.25}, {3, 2, 0.25}});

  const QuerySpec cc{RankingStrategy::kCC, 0.5, 0.5};
  const std::vector<Case> cases = {
      {"tie between two holders", &path, {"x", "y"}, cc, true, 1.0, 0},
      {"disconnected holders", &split, {"x", "y"}, cc, false, 0.0, 0},
      {"holder in its own component", &split, {"y"}, cc, true, 0.0, 2},
      {"SA-CA-CC root holds both skills", &triangle, {"x", "y"},
       {RankingStrategy::kSACACC, 0.5, 0.5}, true, 0.9375, 2},
      {"SA-CA-CC lambda=1", &triangle, {"x", "y"},
       {RankingStrategy::kSACACC, 0.5, 1.0}, true, 0.75, 1},
      {"SA-CA-CC lambda=0", &triangle, {"x", "y"},
       {RankingStrategy::kSACACC, 0.5, 0.0}, true, 0.0, 0},
      {"CA-CC gamma=0", &square, {"x", "y"},
       {RankingStrategy::kCACC, 0.0, 0.5}, true, 1.0, 0},
      {"CA-CC gamma=1", &square, {"x", "y"},
       {RankingStrategy::kCACC, 1.0, 0.5}, true, 1.0, 1},
      {"CC three-way tie", &square, {"x", "y"}, cc, true, 0.5, 0},
  };
  char buf[256];
  for (const Case& c : cases) {
    const ProxyOptimum got =
        ReferenceProxyOptimum(*c.net, Ids(*c.net, c.skills), c.query);
    if (got.feasible != c.feasible ||
        (c.feasible && (got.cost != c.cost || got.root != c.root))) {
      std::snprintf(buf, sizeof(buf),
                    "%s: got feasible=%d cost=%.17g root=%u, want %d %.17g %u",
                    c.name, got.feasible, got.cost, got.root, c.feasible,
                    c.cost, c.root);
      return buf;
    }
  }

  // Wire checks on the square: team {0, 3, 2} covers x and y with CC 0.5.
  const std::vector<std::string> xy = {"x", "y"};
  WireTeam good{0.5, {0, 3, 2}, {{"x", 0}, {"y", 2}}};
  if (std::string why = CheckWireTeam(square, cc, xy, good); !why.empty()) {
    return "a correct wire team was refused: " + why;
  }
  const std::vector<std::pair<const char*, WireTeam>> bad = {
      {"objective below its MST bound", {0.4, {0, 3, 2}, {{"x", 0}, {"y", 2}}}},
      {"members not connected", {0.0, {0, 2}, {{"x", 0}, {"y", 2}}}},
      {"skill assigned twice",
       {0.5, {0, 3, 2}, {{"x", 0}, {"x", 0}, {"y", 2}}}},
      {"skill assigned to a non-holder", {0.5, {0, 3, 2}, {{"x", 3}, {"y", 2}}}},
      {"skill left out", {0.0, {0}, {{"x", 0}}}},
  };
  for (const auto& [what, team] : bad) {
    if (CheckWireTeam(square, cc, xy, team).empty()) {
      return std::string("the wire check accepted a team with ") + what;
    }
  }
  // Definitions 2-6 by hand: team {0, 1, 2}, holders {0, 2}, CC 2, CA 0.5.
  const double ca_cc = ObjectiveOf(square, {RankingStrategy::kCACC, 0.5, 0.5},
                                   {0, 1, 2}, {0, 2}, 2.0);
  const double sa = ObjectiveOf(square, {RankingStrategy::kSACACC, 0.5, 0.5},
                                {0, 1, 2}, {0, 2}, 2.0);
  if (ca_cc != 1.25 || sa != 0.5 * 1.25 + 0.5 * 1.25) {
    return "ObjectiveOf disagrees with Definitions 4 and 6";
  }
  return "";
}

}  // namespace teambench
