// Random-walk proximity measures and their shared vocabulary.
//
// The five measures from the paper (Table 2):
//
//   PHP  penalized hitting probability     r_i = c * sum_j p_ij r_j, r_q = 1
//   EI   effective importance              degree-normalized RWR
//   DHT  discounted hitting time           r_i = 1 + (1-c) sum_j p_ij r_j
//   THT  L-truncated hitting time          L-step DP version of HT
//   RWR  random walk with restart          personalized PageRank at q
//
// PHP, EI and DHT are rank-equivalent (Theorem 2); RWR relates to PHP via
// RWR(i) = RWR(q)/w_q * w_i * PHP(i) (Theorem 6). PHP/EI have no local
// maximum, DHT/THT no local minimum, RWR has local maxima.

#ifndef FLOS_MEASURES_MEASURE_H_
#define FLOS_MEASURES_MEASURE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace flos {

/// Proximity measure identifiers.
enum class Measure { kPhp, kEi, kDht, kTht, kRwr };

/// Whether larger or smaller scores mean "closer to the query".
enum class Direction { kMaximize, kMinimize };

/// Parameters shared by all measures.
struct MeasureParams {
  /// Decay factor (PHP, DHT) or restart probability (RWR, EI). The paper's
  /// experiments use 0.5 for all of them.
  double c = 0.5;
  /// Truncation length L for THT (the paper uses 10).
  int tht_length = 10;
};

/// Direction of `m`: kMaximize for PHP/EI/RWR, kMinimize for DHT/THT.
Direction MeasureDirection(Measure m);

/// True iff score `a` is strictly closer than score `b` under direction `d`.
inline bool IsCloser(Direction d, double a, double b) {
  return d == Direction::kMaximize ? a > b : a < b;
}

/// True iff the measure provably has no local optimum (Table 2); false for
/// RWR, which FLoS handles through its PHP relationship instead.
bool HasNoLocalOptimum(Measure m);

/// Short name, e.g. "PHP".
std::string MeasureName(Measure m);

/// Inverse of MeasureName, ignoring case ("php" and "PHP" both parse);
/// InvalidArgument for any other name.
Result<Measure> ParseMeasure(std::string_view name);

}  // namespace flos

#endif  // FLOS_MEASURES_MEASURE_H_
