// Seeded inputs of the two workloads: the /find requests, the order a
// round sends them in, and the sequence of network deltas. Everything here
// is a pure function of the workload name, the seed and the corpus.
//
// A round is the unit a run repeats: find-ci's window stops only at a round
// boundary, so every run attempts whole rounds and the share of its
// duplicate-skill requests is exactly the same on every run. explore-ci's
// window is exactly one round, so its index-cache misses are the same share
// of every run's requests however fast the requests are answered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "network/network_delta.h"
#include "reference.h"

namespace teambench {

/// The value seeds the workload's draws, so it stays fixed.
enum class WorkloadKind { kFind = 0, kExplore = 2 };

/// \brief One /find request as the benchmark sends it.
struct FindRequest {
  std::vector<std::string> skills;    ///< as sent (find-ci may repeat one)
  std::vector<std::string> distinct;  ///< the project: skills, repeats dropped
  QuerySpec query;
  uint32_t top_k = 1;
  /// For a duplicate-skill request: index in Workload::requests of the same
  /// request without the repeat; -1 otherwise.
  int base = -1;
  std::string target;  ///< "/find?skills=...&strategy=...&..."
};

/// \brief One delta of the update sequence.
struct Update {
  teamdisc::ExpertNetworkDelta delta;
  bool reweight = false;  ///< edge reweight (else a skill toggle)
};

struct Workload {
  std::vector<FindRequest> requests;
  /// One round: indices into `requests`, in send order.
  std::vector<size_t> round;
  /// Gammas whose transform the snapshot pre-builds (BuildSnapshot's default
  /// set); warm-up touches each of them before the timed window.
  std::vector<double> prebuilt_gammas;
  std::vector<Update> deltas;
  /// Two rare skills for the warm-up requests, which load each pre-built
  /// index without a heavy solve.
  std::vector<std::string> warmup_skills;
};

/// Builds the workload for `kind` from `seed` over the generated corpus.
Workload MakeWorkload(WorkloadKind kind, uint64_t seed,
                      const teamdisc::ExpertNetwork& net);

/// The /find target for a request (skills percent-encoded).
std::string FindTarget(const std::vector<std::string>& skills,
                       const QuerySpec& query, uint32_t top_k);

/// Small deterministic generator (SplitMix64), independent of the system's
/// own RNG so the inputs do not move when that code changes.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound), bound > 0.
  uint64_t Below(uint64_t bound);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

}  // namespace teambench
