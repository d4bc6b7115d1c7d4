// The benchmark's own model of what a correct answer is.
//
// ReferenceProxyOptimum computes Algorithm 1's best teamCost (paper §3.2)
// without the system's finder or distance oracles: for each skill, one
// multi-source Dijkstra over the search graph — G for CC, G'(gamma) for
// CA-CC and SA-CA-CC, with G' weights gamma(a'u + a'v) + 2(1-gamma)w computed
// while relaxing — seeded at every holder v with beta(v)/alpha, where the
// strategy's per-skill cost is alpha*DIST(root, v) + beta(v):
//
//   CC        alpha = 1        beta = 0
//   CA-CC     alpha = 1        beta = -gamma a'(v)
//   SA-CA-CC  alpha = 1-lambda beta = (1-lambda)(-gamma a'(v)) + lambda a'(v)
//
// SA-CA-CC at lambda = 1 has alpha = 0: the cost is the least a'(v) over the
// holders in the root's component. A root that holds a skill is charged by
// the root-holds-skill rule of core/greedy_team_finder.cc: nothing under CC
// and CA-CC, lambda a'(root) under SA-CA-CC.
//
// The checks below read a team's members, assignments and edges against the
// benchmark's copy of the network and recompute Definitions 2-6 themselves.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/objectives.h"
#include "core/team.h"
#include "network/expert_network.h"

namespace teambench {

using teamdisc::ExpertNetwork;
using teamdisc::NodeId;
using teamdisc::RankingStrategy;
using teamdisc::SkillId;

/// \brief Strategy and trade-off parameters of one query.
struct QuerySpec {
  RankingStrategy strategy = RankingStrategy::kSACACC;
  double gamma = 0.6;
  double lambda = 0.6;
};

/// \brief Result of the reference computation.
struct ProxyOptimum {
  bool feasible = false;  ///< some root reaches a holder of every skill
  double cost = 0.0;      ///< min over roots of the summed per-skill costs
  NodeId root = teamdisc::kInvalidNode;  ///< smallest-id root reaching it
};

/// Algorithm 1's optimal proxy cost for `skills` (distinct ids).
ProxyOptimum ReferenceProxyOptimum(const ExpertNetwork& net,
                                   const std::vector<SkillId>& skills,
                                   const QuerySpec& query);

/// Definitions 2-6: the strategy's objective of a team with these members
/// and skill holders whose edges weigh `cc` in total.
double ObjectiveOf(const ExpertNetwork& net, const QuerySpec& query,
                   const std::vector<NodeId>& members,
                   const std::vector<NodeId>& holders, double cc);

/// |a - b| within 1e-9 of the larger magnitude (plus 1e-12 absolute, so
/// two zero-cost answers that differ by rounding still agree).
bool NearlyEqual(double a, double b);

/// \brief One team as it arrives on the wire.
struct WireTeam {
  double objective = 0.0;
  std::vector<NodeId> members;
  std::vector<std::pair<std::string, NodeId>> assignments;  ///< skill, expert
};

/// Checks a wire team against `net`: every skill in `distinct_skills`
/// assigned exactly once to a member holding it and nothing else assigned;
/// members distinct and connected through network edges among themselves;
/// the objective between its value with the MST of the member-induced
/// subgraph and with all of that subgraph's edges. Returns "" when the team
/// passes, else the first violation.
std::string CheckWireTeam(const ExpertNetwork& net, const QuerySpec& query,
                          const std::vector<std::string>& distinct_skills,
                          const WireTeam& team);

/// Checks an in-process team: its edges exist in `net` with the weights it
/// reports, and `reported` equals Definitions 2-6 recomputed from them.
std::string CheckTeamObjective(const ExpertNetwork& net, const QuerySpec& query,
                               const teamdisc::Team& team, double reported);

/// Runs the reference on hand-built networks with known optima. Returns ""
/// when every case matches, else a description of the first mismatch.
std::string RunReferenceSelfTest();

}  // namespace teambench
