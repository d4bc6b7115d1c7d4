#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace teambench {

namespace {

using teamdisc::ExpertNetwork;

/// Distinct requests in one round; a multiple of 27 so every strategy meets
/// every skill count (2..10) equally often.
constexpr size_t kRoundRequests = 540;
/// find-ci: every 45th request is followed by its duplicate-skill twin.
constexpr size_t kDuplicateEvery = 45;
constexpr size_t kPopularSkills = 40;
/// explore-ci: first-seen gammas per run, each one index-cache miss.
constexpr size_t kExploreNewGammas = 48;
constexpr size_t kExplorePasses = 6;
/// Deltas applied before the window with no reads running: 27 skill toggles,
/// then 3 reweights.
constexpr size_t kDeltas = 30;

const std::vector<double>& PrebuiltGammas() {
  // BuildSnapshotOptions' default transform set.
  static const std::vector<double> gammas = {0.0, 0.25, 0.5, 0.75, 1.0};
  return gammas;
}

std::string PercentEncode(const std::string& s) {
  std::string out;
  for (unsigned char c : s) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

/// Rounds to two decimals the way the request prints them, so the value the
/// server parses and the value the checks use are the same double.
double TwoDecimals(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", x);
  return std::strtod(buf, nullptr);
}

std::vector<NodeId> LargestComponent(const ExpertNetwork& net) {
  const NodeId n = net.num_experts();
  std::vector<int> comp(n, -1);
  std::vector<NodeId> best;
  for (NodeId s = 0; s < n; ++s) {
    if (comp[s] >= 0) continue;
    std::vector<NodeId> members = {s};
    comp[s] = static_cast<int>(s);
    for (size_t i = 0; i < members.size(); ++i) {
      for (const teamdisc::Neighbor& nb : net.graph().Neighbors(members[i])) {
        if (comp[nb.node] < 0) {
          comp[nb.node] = static_cast<int>(s);
          members.push_back(nb.node);
        }
      }
    }
    if (members.size() > best.size()) best = std::move(members);
  }
  std::sort(best.begin(), best.end());
  return best;
}

}  // namespace

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SeededRng::Below(uint64_t bound) {
  // Rejection sampling keeps the draw exactly uniform.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % bound;
}

double SeededRng::Unit() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

std::string FindTarget(const std::vector<std::string>& skills,
                       const QuerySpec& query, uint32_t top_k) {
  std::string target = "/find?skills=";
  for (size_t i = 0; i < skills.size(); ++i) {
    if (i > 0) target += ",";
    target += PercentEncode(skills[i]);
  }
  const char* strategy = query.strategy == RankingStrategy::kCC     ? "cc"
                         : query.strategy == RankingStrategy::kCACC ? "cacc"
                                                                    : "sacacc";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "&strategy=%s&gamma=%.2f&lambda=%.2f&top_k=%u",
                strategy, query.gamma, query.lambda, top_k);
  return target + buf;
}

Workload MakeWorkload(WorkloadKind kind, uint64_t seed, const ExpertNetwork& net) {
  Workload w;
  w.prebuilt_gammas = PrebuiltGammas();
  SeededRng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(kind));

  // Skills with a holder in the largest component: a root there reaches a
  // holder of each, so every request is feasible.
  const std::vector<NodeId> lcc = LargestComponent(net);
  std::vector<char> in_lcc(net.num_experts(), 0);
  for (NodeId v : lcc) in_lcc[v] = 1;
  struct SkillInfo {
    size_t holders;
    std::string name;
  };
  std::vector<SkillInfo> eligible;
  for (SkillId s = 0; s < net.num_skills(); ++s) {
    const auto holders = net.ExpertsWithSkill(s);
    if (std::any_of(holders.begin(), holders.end(),
                    [&](NodeId v) { return in_lcc[v] != 0; })) {
      eligible.push_back({holders.size(), net.skills().NameUnchecked(s)});
    }
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const SkillInfo& a, const SkillInfo& b) {
              return a.holders != b.holders ? a.holders > b.holders
                                            : a.name < b.name;
            });
  // Popular: the kPopularSkills most-held skills (the head of the Zipf
  // topic distribution, up to hundreds of holders). Rare: the rest (mostly
  // one to ten holders).
  std::vector<std::string> popular, rare;
  for (size_t i = 0; i < eligible.size(); ++i) {
    (i < kPopularSkills ? popular : rare).push_back(eligible[i].name);
  }
  if (rare.size() < 10 || popular.size() < kPopularSkills) {
    std::fprintf(stderr, "teambench: corpus has too few feasible skills\n");
    std::exit(1);
  }
  w.warmup_skills = {rare[rare.size() - 1], rare[rare.size() - 2]};

  // Gamma of each request: the pre-built set in turn, the same for every
  // seed.
  std::vector<double> gammas(kRoundRequests);
  for (size_t i = 0; i < kRoundRequests; ++i) {
    gammas[i] = w.prebuilt_gammas[(i / 27) % w.prebuilt_gammas.size()];
  }
  if (kind == WorkloadKind::kExplore) {
    // A finer grid than the snapshot's: the hundredths it lacks, in
    // kExploreNewGammas equal bins, the middle value of each. Bin k's value
    // goes to one transform request at the k-th of kExploreNewGammas evenly
    // spaced places, so the sweep meets each new gamma once per pass, in
    // rising order, and every first use is a miss no other request waits on.
    // The values are the same for every seed: a miss's index build and write
    // cost depends on gamma, and seed-drawn values moved find_p50_ms by 13%
    // between seeds (README).
    std::vector<double> grid;
    for (int i = 1; i < 100; ++i) {
      if (i % 25 != 0) grid.push_back(i / 100.0);
    }
    for (size_t k = 0; k < kExploreNewGammas; ++k) {
      const size_t lo = k * grid.size() / kExploreNewGammas;
      const size_t hi = (k + 1) * grid.size() / kExploreNewGammas;
      size_t i = (2 * k + 1) * kRoundRequests / (2 * kExploreNewGammas);
      if (i % 3 == 0) ++i;  // i % 3 == 0 is a CC request
      gammas[i] = TwoDecimals(grid[lo + (hi - lo) / 2]);
    }
  }

  // Request i: strategy i % 3, 2 + (i / 3) % 9 skills, top-5 for one in
  // seven, and every fourth request leads with a popular skill taken in rank
  // order. The other skills are rare: the t-th rare pick of the set takes a
  // rank stepping through the rare skills (most held first) by a stride
  // coprime to their count, then a random rank in the same block of eight,
  // so each set holds nearly the same mix of holder counts on every seed.
  const RankingStrategy strategies[] = {RankingStrategy::kCC, RankingStrategy::kCACC,
                                        RankingStrategy::kSACACC};
  size_t rare_picks = 0;
  size_t stride = 113;
  while (std::gcd(stride, rare.size()) != 1) stride += 2;
  for (size_t i = 0; i < kRoundRequests; ++i) {
    FindRequest req;
    req.query.strategy = strategies[i % 3];
    req.query.gamma = gammas[i];
    req.query.lambda = TwoDecimals(static_cast<double>(rng.Below(101)) / 100.0);
    req.top_k = i % 7 == 6 ? 5 : 1;
    const size_t k = 2 + (i / 3) % 9;
    if (i % 4 == 0) req.distinct.push_back(popular[(i / 4) % popular.size()]);
    while (req.distinct.size() < k) {
      const size_t block = (rare_picks++ * stride) % rare.size() / 8 * 8;
      const size_t rank = std::min(block + rng.Below(8), rare.size() - 1);
      const std::string& skill = rare[rank];
      if (std::find(req.distinct.begin(), req.distinct.end(), skill) ==
          req.distinct.end()) {
        req.distinct.push_back(skill);
      }
    }
    req.skills = req.distinct;
    req.target = FindTarget(req.skills, req.query, req.top_k);
    w.requests.push_back(req);
    if (kind == WorkloadKind::kFind && i % kDuplicateEvery == kDuplicateEvery - 1) {
      FindRequest twin = req;
      twin.skills.push_back(twin.skills.front());
      twin.base = static_cast<int>(w.requests.size()) - 1;
      twin.target = FindTarget(twin.skills, twin.query, twin.top_k);
      w.requests.push_back(std::move(twin));
    }
  }
  // explore-ci sends its requests kExplorePasses times in its one round; the
  // index-cache misses all fall in the first pass.
  const size_t passes = kind == WorkloadKind::kExplore ? kExplorePasses : 1;
  for (size_t p = 0; p < passes; ++p) {
    for (size_t i = 0; i < w.requests.size(); ++i) w.round.push_back(i);
  }

  // Deltas: skill toggles (add a requested skill to an expert of the largest
  // component, then revoke it again) and edge reweights (x1.25 and x0.8 in
  // turn), nine toggles to a reweight: a toggle costs a hundredth of a
  // reweight, so the skill-swap median gets enough samples. The toggles come
  // first, so none follows a reweight's disk writes, and the sequence ends
  // with a reweight (README, known fault 3). Holders only ever grow
  // back to the original set and no edge disappears, so every request stays
  // feasible on every generation.
  std::vector<std::string> toggle_skills = popular;
  toggle_skills.insert(toggle_skills.end(), rare.begin(), rare.end());
  // Reweights take edges of positive weight: scaling a zero weight changes
  // nothing, and such an index-neutral "reweight" would leave the run in
  // the state of known fault 3 (every CC request refused).
  std::vector<teamdisc::Edge> edges;
  for (const teamdisc::Edge& e : net.graph().CanonicalEdges()) {
    if (in_lcc[e.u] != 0 && e.weight > 0.0) edges.push_back(e);
  }
  NodeId toggled_expert = teamdisc::kInvalidNode;
  size_t reweights = 0;
  std::string toggled_skill;
  for (size_t j = 0; j < kDeltas; ++j) {
    Update d;
    d.reweight = j >= kDeltas - kDeltas / 10;
    if (!d.reweight) {
      if (toggled_expert == teamdisc::kInvalidNode) {
        toggled_skill = toggle_skills[rng.Below(toggle_skills.size())];
        const SkillId id = net.skills().Find(toggled_skill);
        do {
          toggled_expert = lcc[rng.Below(lcc.size())];
        } while (net.HasSkill(toggled_expert, id));
        d.delta.AddSkill(toggled_expert, toggled_skill);
      } else {
        d.delta.RevokeSkill(toggled_expert, toggled_skill);
        toggled_expert = teamdisc::kInvalidNode;
      }
    } else {
      teamdisc::Edge& e = edges[rng.Below(edges.size())];
      e.weight *= reweights++ % 2 == 0 ? 1.25 : 0.8;
      d.delta.ReweightCollaboration(e.u, e.v, e.weight);
    }
    w.deltas.push_back(std::move(d));
  }
  return w;
}

}  // namespace teambench
