#include "util/cli.hpp"

#include <charconv>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcdft::util {

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

int CliArgs::GetInt(const std::string& name, int fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& text = it->second;
  const char* last = text.data() + text.size();
  int v = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc::result_out_of_range) {
    throw Error("option --" + name + ": '" + text + "' is out of range");
  }
  if (ec != std::errc() || end != last) {
    throw Error("option --" + name + ": '" + text + "' is not an integer");
  }
  return v;
}

const char* EnvOverridesHelp() {
  // Keep in sync with the "Environment overrides" table in README.md.
  return
      "Environment overrides (read once per process; flags still apply on\n"
      "top, an override of 0/off wins over any flag):\n"
      "  MCDFT_LOWRANK=0   disable low-rank (SMW) AC fault solves: classic\n"
      "                    fault-major sweeps (also --no-lowrank); transient\n"
      "                    campaigns always re-march exactly\n"
      "  MCDFT_BATCH=0     disable batched multi-RHS SMW fault solves,\n"
      "                    keeping per-fault updates (also --no-batch)\n"
      "  MCDFT_SCREEN=0    disable the adjoint sensitivity screen (also\n"
      "                    --no-screen); implies nothing else — results\n"
      "                    are bit-identical either way\n"
      "  MCDFT_SIMD=LEVEL  pin the SIMD kernel variant: scalar|avx2|avx512\n"
      "                    (capped at what the CPU supports)\n"
      "  MCDFT_CACHE_MB=N  mcdftd result-cache capacity in MB; overrides\n"
      "                    --cache-mb, 0 disables the cache\n"
      "  MCDFT_THREADS=N   worker threads when --threads/threads is 0\n"
      "                    (default: the hardware thread count)\n"
      "  MCDFT_DEADLINE_MS=N  default `mcdft submit` deadline in ms\n"
      "                    (--deadline-ms wins); 0 = no deadline\n"
      "  MCDFT_IO_TIMEOUT_MS=N  mcdftd per-connection read/write timeout\n"
      "                    in ms; overrides --io-timeout-ms, 0 disables\n";
}

}  // namespace mcdft::util
