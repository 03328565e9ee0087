// Minimal command-line flag parsing for benchmark and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name` forms. Unknown flags are an error so typos in experiment
// scripts fail loudly instead of silently running the default configuration.
//
// Usage:
//   FlagParser flags;
//   int k = 20;
//   flags.AddInt("k", &k, "number of neighbors to return");
//   if (!flags.Parse(argc, argv).ok()) { flags.PrintUsage(); return 1; }

#ifndef FLOS_UTIL_FLAGS_H_
#define FLOS_UTIL_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace flos {

/// Registry and parser for a binary's command-line flags.
class FlagParser {
 public:
  /// Registers flags. `target` must outlive Parse; it holds the default and
  /// receives the parsed value.
  void AddInt(const std::string& name, int64_t* target,
              const std::string& help);
  /// As above, but Parse fails with InvalidArgument unless the value lies
  /// in [min_value, max_value], so a caller can narrow it to a smaller
  /// type without wrapping.
  void AddInt(const std::string& name, int64_t* target, int64_t min_value,
              int64_t max_value, const std::string& help);
  void AddDouble(const std::string& name, double* target,
                 const std::string& help);
  void AddBool(const std::string& name, bool* target, const std::string& help);
  void AddString(const std::string& name, std::string* target,
                 const std::string& help);

  /// Parses argv. Returns InvalidArgument on unknown flags, malformed
  /// values, or integers outside their flag's range. Positional (non-flag)
  /// arguments are collected in `positional_args()`.
  Status Parse(int argc, char** argv);

  /// Writes a usage summary (flag names, defaults, help strings) to stderr.
  void PrintUsage(const std::string& program_name) const;

  const std::vector<std::string>& positional_args() const {
    return positional_;
  }

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Flag {
    std::string name;
    Type type;
    void* target;
    std::string help;
    std::string default_repr;
    int64_t min_value = INT64_MIN;  ///< kInt only: accepted range
    int64_t max_value = INT64_MAX;
  };

  Status SetValue(const Flag& flag, const std::string& value);
  const Flag* Find(const std::string& name) const;

  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace flos

#endif  // FLOS_UTIL_FLAGS_H_
