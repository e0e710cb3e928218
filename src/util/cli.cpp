#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcdft::util {

namespace {

/// The whole of `text` as a decimal int in [`min_value`, `max_value`];
/// `what` names the source in the error ("option --ppd", "environment
/// MCDFT_DEADLINE_MS").
int ParseWholeInt(const std::string& text, const std::string& what,
                  int min_value, int max_value = INT_MAX) {
  const char* last = text.data() + text.size();
  int v = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc::result_out_of_range) {
    throw Error(what + ": '" + text + "' is out of range");
  }
  if (ec != std::errc() || end != last) {
    throw Error(what + ": '" + text + "' is not an integer");
  }
  if (v < min_value) {
    throw Error(what + ": '" + text + "' must be >= " +
                std::to_string(min_value));
  }
  if (v > max_value) {
    throw Error(what + ": '" + text + "' must be <= " +
                std::to_string(max_value));
  }
  return v;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        options_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        options_[body] = argv[++i];
      } else {
        options_[body] = "";  // boolean flag
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool CliArgs::Has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::string CliArgs::GetString(const std::string& name,
                               const std::string& fallback) const {
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

double CliArgs::GetDouble(const std::string& name, double fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  double v = 0.0;
  if (!ParseEngineering(it->second, v)) {
    throw Error("option --" + name + ": '" + it->second +
                "' is not a number");
  }
  return v;
}

int CliArgs::GetInt(const std::string& name, int fallback, int min_value,
                    int max_value) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return ParseWholeInt(it->second, "option --" + name, min_value, max_value);
}

std::optional<std::string> CliArgs::UnknownOption(
    const std::set<std::string>& allowed) const {
  for (const auto& [name, value] : options_) {
    if (allowed.count(name) == 0) return name;
  }
  return std::nullopt;
}

int GetEnvInt(const char* name, int fallback, int min_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return ParseWholeInt(value, std::string("environment ") + name, min_value);
}

const char* EnvOverridesHelp() {
  // Keep in sync with the "Environment overrides" table in README.md.
  return
      "Environment overrides (read once per process):\n"
      "  MCDFT_CACHE_MB=N  mcdftd result-cache capacity in MB; overrides\n"
      "                    --cache-mb, 0 disables the cache; a value that\n"
      "                    is not a whole integer >= 0 is an error (exit 2)\n"
      "  MCDFT_THREADS=N   worker threads when --threads/threads is 0\n"
      "                    (unset or 0: the hardware thread count); a\n"
      "                    value that is not a whole integer >= 0 is an\n"
      "                    error (mcdft exits 1, mcdftd 2)\n"
      "  MCDFT_DEADLINE_MS=N  default `mcdft submit` deadline in ms\n"
      "                    (--deadline-ms wins); 0 = no deadline; a\n"
      "                    malformed value is an error (exit 1)\n"
      "  MCDFT_IO_TIMEOUT_MS=N  mcdftd per-connection read/write timeout\n"
      "                    in ms; overrides --io-timeout-ms, 0 disables;\n"
      "                    a malformed value is an error (exit 2)\n";
}

}  // namespace mcdft::util
