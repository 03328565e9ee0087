#include "measures/measure.h"

#include <cctype>

namespace flos {

Direction MeasureDirection(Measure m) {
  switch (m) {
    case Measure::kPhp:
    case Measure::kEi:
    case Measure::kRwr:
      return Direction::kMaximize;
    case Measure::kDht:
    case Measure::kTht:
      return Direction::kMinimize;
  }
  return Direction::kMaximize;
}

bool HasNoLocalOptimum(Measure m) {
  switch (m) {
    case Measure::kPhp:
    case Measure::kEi:
    case Measure::kDht:
    case Measure::kTht:
      return true;
    case Measure::kRwr:
      return false;
  }
  return false;
}

std::string MeasureName(Measure m) {
  switch (m) {
    case Measure::kPhp:
      return "PHP";
    case Measure::kEi:
      return "EI";
    case Measure::kDht:
      return "DHT";
    case Measure::kTht:
      return "THT";
    case Measure::kRwr:
      return "RWR";
  }
  return "?";
}

Result<Measure> ParseMeasure(std::string_view name) {
  std::string upper(name);
  for (char& c : upper) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  for (const Measure m : {Measure::kPhp, Measure::kEi, Measure::kDht,
                          Measure::kTht, Measure::kRwr}) {
    if (MeasureName(m) == upper) return m;
  }
  return Status::InvalidArgument("unknown measure '" + std::string(name) +
                                 "' (expected php|ei|dht|tht|rwr)");
}

}  // namespace flos
