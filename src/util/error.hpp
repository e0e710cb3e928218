// Typed error hierarchy for the mcdft library.
//
// All library-level failures are reported by throwing one of these exception
// types.  Following the C++ Core Guidelines (E.2, E.14), errors that a caller
// cannot reasonably check in advance (singular MNA systems, malformed
// netlists, ...) throw; programming-contract violations use assertions.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace mcdft::util {

/// Root of the mcdft exception hierarchy.  Catch this to handle any library
/// failure uniformly.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A netlist is structurally invalid: unknown node, duplicate device name,
/// dangling required terminal, missing ground reference, ...
class NetlistError : public Error {
 public:
  explicit NetlistError(const std::string& what) : Error("netlist: " + what) {}
};

/// The SPICE-subset parser rejected the input text.  Carries a 1-based line
/// number for diagnostics.
class ParseError : public Error {
 public:
  ParseError(std::size_t line, const std::string& what)
      : Error("parse: line " + std::to_string(line) + ": " + what), line_(line) {}

  /// 1-based line in the netlist source where the error was detected.
  std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// Numerical failure in the linear-algebra layer (singular or numerically
/// rank-deficient matrix, dimension mismatch, ...).
class NumericError : public Error {
 public:
  explicit NumericError(const std::string& what) : Error("numeric: " + what) {}
};

/// An analysis was asked to do something inconsistent (empty sweep, output
/// node not in the circuit, fault referencing an unknown device, ...).
class AnalysisError : public Error {
 public:
  explicit AnalysisError(const std::string& what) : Error("analysis: " + what) {}
};

/// The optimizer was handed an infeasible problem (e.g. a fault that no
/// configuration detects while full coverage was demanded).
class OptimizationError : public Error {
 public:
  explicit OptimizationError(const std::string& what)
      : Error("optimization: " + what) {}
};

/// What went wrong, as a machine-checkable enum, for failures that recovery
/// code branches on (the retry ladder treats both alike; tests tell them
/// apart).  The names are the stable message prefixes.
enum class ErrorCategory {
  kSingularSystem,  ///< LU factorization hit a (near-)zero pivot
  kInjected,        ///< fired by an armed util/faultpoint (tests, CI)
};

/// Stable name for a category (the message prefix).
constexpr std::string_view ErrorCategoryName(ErrorCategory category) {
  switch (category) {
    case ErrorCategory::kSingularSystem: return "SingularSystem";
    case ErrorCategory::kInjected: return "Injected";
  }
  return "Unknown";
}

/// Categorized failure: the message is "<category name>: <context>", where
/// the context names the failing site (matrix step, faultpoint name, ...).
class McdftError : public Error {
 public:
  McdftError(ErrorCategory category, const std::string& context)
      : Error(std::string(ErrorCategoryName(category)) + ": " + context),
        category_(category),
        context_(context) {}

  ErrorCategory Category() const noexcept { return category_; }
  const std::string& Context() const noexcept { return context_; }

 private:
  ErrorCategory category_;
  std::string context_;
};

}  // namespace mcdft::util
