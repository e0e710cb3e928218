// Minimal command-line option parser used by the examples and experiment
// benches.  Supports `--name value`, `--name=value` and boolean `--flag`.
#pragma once

#include <climits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace mcdft::util {

/// Parses argv into named options and positional arguments.
///
/// Unknown options are collected rather than rejected, so binaries can share
/// a common option set and ignore what they do not use; a binary that must
/// not ignore them checks UnknownOption() against the flags it reads.
class CliArgs {
 public:
  /// Parse from main()'s argc/argv (argv[0] is skipped).
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` was present (with or without a value).
  bool Has(const std::string& name) const;

  /// String value of `--name`, or `fallback` when absent.
  std::string GetString(const std::string& name, const std::string& fallback) const;

  /// Numeric value of `--name` (engineering suffixes allowed), or `fallback`
  /// when absent.  Throws util::Error naming the flag when the value does
  /// not parse as a whole.
  double GetDouble(const std::string& name, double fallback) const;

  /// Integer value of `--name`, or `fallback` when absent.  Throws
  /// util::Error naming the flag when the whole value is not a decimal
  /// integer, does not fit an int, or lies outside [`min_value`,
  /// `max_value`].
  int GetInt(const std::string& name, int fallback, int min_value = INT_MIN,
             int max_value = INT_MAX) const;

  /// The first option (in name order) that is not in `allowed`, or nullopt
  /// when every option is.
  std::optional<std::string> UnknownOption(
      const std::set<std::string>& allowed) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& Positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Integer value of environment variable `name`, or `fallback` when it is
/// unset or empty.  Any other value must pass CliArgs::GetInt's rule (a
/// whole decimal integer that fits an int and is >= `min_value`);
/// otherwise throws util::Error naming the variable.
int GetEnvInt(const char* name, int fallback, int min_value = INT_MIN);

/// The one table of MCDFT_* environment escape hatches, formatted for a
/// --help epilog.  Printed by both `mcdft` and `mcdftd` (and mirrored in
/// README.md) so operators find every global override in one place.
const char* EnvOverridesHelp();

}  // namespace mcdft::util
