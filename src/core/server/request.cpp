#include "core/server/request.hpp"

#include <cmath>

#include "circuits/zoo.hpp"
#include "core/shard.hpp"
#include "faults/fault_list.hpp"
#include "spice/parser.hpp"
#include "util/error.hpp"

namespace mcdft::core::server {

namespace json = util::json;

namespace {

double NumberOr(const json::Value& v, std::string_view key, double fallback) {
  const json::Value* f = v.Find(key);
  if (f == nullptr) return fallback;
  const double d = f->AsDouble();
  if (!std::isfinite(d)) {
    throw util::Error("field '" + std::string(key) + "' must be finite");
  }
  return d;
}

// Client-supplied doubles go through here before the int cast: a value
// outside the target range (1e300, NaN, ...) would make the conversion
// undefined behavior, and a negative count would wrap to a huge size_t
// downstream.  Reject instead.
int IntOr(const json::Value& v, std::string_view key, int fallback,
          int min_value, int max_value) {
  const json::Value* f = v.Find(key);
  if (f == nullptr) return fallback;
  const double d = f->AsDouble();
  if (!std::isfinite(d) || d < static_cast<double>(min_value) ||
      d > static_cast<double>(max_value)) {
    throw util::Error("field '" + std::string(key) +
                      "' must be an integer in [" + std::to_string(min_value) +
                      ", " + std::to_string(max_value) + "]");
  }
  return static_cast<int>(d);
}

bool BoolOr(const json::Value& v, std::string_view key, bool fallback) {
  const json::Value* f = v.Find(key);
  return f == nullptr ? fallback : f->AsBool();
}

std::string StringOr(const json::Value& v, std::string_view key,
                     const std::string& fallback) {
  const json::Value* f = v.Find(key);
  return f == nullptr ? fallback : f->AsString();
}

faults::Fault MakeExtraFault(const ExtraFault& e) {
  if (e.kind == "up") {
    return faults::Fault(e.device, faults::FaultKind::kDeviationUp,
                         e.magnitude);
  }
  if (e.kind == "down") {
    return faults::Fault(e.device, faults::FaultKind::kDeviationDown,
                         e.magnitude);
  }
  if (e.kind == "open") return faults::Fault::Open(e.device);
  if (e.kind == "short") return faults::Fault::Short(e.device);
  throw util::Error("extra fault kind must be up/down/open/short, got '" +
                    e.kind + "'");
}

}  // namespace

CampaignRequest RequestFromJson(const json::Value& v) {
  CampaignRequest r;
  r.circuit = StringOr(v, "circuit", r.circuit);
  r.deck = StringOr(v, "deck", r.deck);
  r.eps = NumberOr(v, "eps", r.eps);
  r.tol = NumberOr(v, "tol", r.tol);
  r.samples = IntOr(v, "samples", r.samples, 0, 1'000'000);
  r.ppd = IntOr(v, "ppd", r.ppd, 1, 100'000);
  r.max_followers = IntOr(v, "max_followers", r.max_followers, -1, 1024);
  r.screen = BoolOr(v, "screen", r.screen);
  r.threads = IntOr(v, "threads", r.threads, 0, 4096);
  r.priority = IntOr(v, "priority", r.priority, -1'000'000, 1'000'000);
  r.analysis = StringOr(v, "analysis", r.analysis);
  if (!ParseCampaignAnalysis(r.analysis)) {
    throw util::Error("field 'analysis' must be ac or transient, got '" +
                      r.analysis + "'");
  }
  r.fault_universe = StringOr(v, "fault_universe", r.fault_universe);
  if (!r.fault_universe.empty() && r.fault_universe != "deviation" &&
      r.fault_universe != "catastrophic" && r.fault_universe != "both") {
    throw util::Error(
        "field 'fault_universe' must be deviation/catastrophic/both, got '" +
        r.fault_universe + "'");
  }
  r.transient_t_end = NumberOr(v, "transient_t_end", r.transient_t_end);
  if (r.transient_t_end < 0.0) {
    throw util::Error("field 'transient_t_end' must be >= 0");
  }
  r.transient_steps =
      IntOr(v, "transient_steps", r.transient_steps, 0, 10'000'000);
  if (const json::Value* extras = v.Find("extra_faults")) {
    for (const json::Value& e : extras->Items()) {
      ExtraFault x;
      x.device = e.Get("device").AsString();
      x.kind = StringOr(e, "kind", x.kind);
      x.magnitude = NumberOr(e, "magnitude", x.magnitude);
      r.extra_faults.push_back(std::move(x));
    }
  }
  // Lifecycle fields (cancellation plumbing, never cache-key material).
  // ~24.8 days is a generous ceiling that still fits the int range the
  // validation helper covers.
  r.deadline_ms = IntOr(v, "deadline_ms", 0, 0, 2'000'000'000);
  r.request_id = StringOr(v, "request_id", r.request_id);
  if (r.request_id.size() > 128) {
    throw util::Error("field 'request_id' must be <= 128 bytes");
  }
  return r;
}

json::Value RequestToJson(const CampaignRequest& request) {
  json::Value v = json::Value::Object();
  if (!request.deck.empty()) {
    v.Set("deck", json::Value::Str(request.deck));
  } else {
    v.Set("circuit", json::Value::Str(request.circuit));
  }
  v.Set("eps", json::Value::Number(request.eps));
  v.Set("tol", json::Value::Number(request.tol));
  v.Set("samples", json::Value::Number(
                       static_cast<std::int64_t>(request.samples)));
  v.Set("ppd", json::Value::Number(static_cast<std::int64_t>(request.ppd)));
  v.Set("max_followers", json::Value::Number(
                             static_cast<std::int64_t>(request.max_followers)));
  // The screen field rides the wire only when non-default, like the
  // transient fields below: pre-screen clients' request bytes (and hence
  // daemon cache keys computed from them) are unchanged.
  if (!request.screen) {
    v.Set("screen", json::Value::Bool(false));
  }
  v.Set("threads", json::Value::Number(
                       static_cast<std::int64_t>(request.threads)));
  v.Set("priority", json::Value::Number(
                        static_cast<std::int64_t>(request.priority)));
  // Transient fields ride the wire only when non-default: the serialized
  // bytes of every pre-existing AC request are unchanged.
  if (request.analysis != "ac") {
    v.Set("analysis", json::Value::Str(request.analysis));
  }
  if (!request.fault_universe.empty()) {
    v.Set("fault_universe", json::Value::Str(request.fault_universe));
  }
  if (request.transient_t_end > 0.0) {
    v.Set("transient_t_end", json::Value::Number(request.transient_t_end));
  }
  if (request.transient_steps > 0) {
    v.Set("transient_steps",
          json::Value::Number(
              static_cast<std::int64_t>(request.transient_steps)));
  }
  // Lifecycle fields ride the wire only when set: request bytes of every
  // deadline-less client are unchanged, and neither field ever reaches the
  // content hash (cancellation truncates work; it never changes results).
  if (request.deadline_ms > 0) {
    v.Set("deadline_ms", json::Value::Number(
                             static_cast<std::int64_t>(request.deadline_ms)));
  }
  if (!request.request_id.empty()) {
    v.Set("request_id", json::Value::Str(request.request_id));
  }
  if (!request.extra_faults.empty()) {
    json::Value extras = json::Value::Array();
    for (const ExtraFault& e : request.extra_faults) {
      json::Value x = json::Value::Object();
      x.Set("device", json::Value::Str(e.device));
      x.Set("kind", json::Value::Str(e.kind));
      x.Set("magnitude", json::Value::Number(e.magnitude));
      extras.PushBack(std::move(x));
    }
    v.Set("extra_faults", std::move(extras));
  }
  return v;
}

CampaignJob BuildCampaignJob(const CampaignRequest& request) {
  // Range checks live here because every entry point (the CLI's campaign
  // subcommands, daemon submits, the benchmark) builds its campaign
  // through this call; RequestFromJson's casts guard outside input first.
  if (request.ppd < 1) {
    throw util::Error("field 'ppd' must be >= 1, got " +
                      std::to_string(request.ppd));
  }
  if (!std::isfinite(request.eps)) {
    throw util::Error("field 'eps' must be finite");
  }
  // A negative tolerance is not "off": only 0 switches the envelope off.
  if (!std::isfinite(request.tol) || request.tol < 0.0) {
    throw util::Error("field 'tol' must be finite and >= 0 (0 = off)");
  }
  if (request.max_followers < -1) {
    throw util::Error("field 'max_followers' must be >= -1 (-1 = default), "
                      "got " + std::to_string(request.max_followers));
  }
  if (request.tol > 0.0 && request.samples < 1) {
    throw util::Error("field 'samples' must be >= 1 when tol > 0, got " +
                      std::to_string(request.samples));
  }
  if (request.transient_steps < 0) {
    throw util::Error("field 'transient_steps' must be >= 0 (0 = default), "
                      "got " + std::to_string(request.transient_steps));
  }
  if (!std::isfinite(request.transient_t_end) ||
      request.transient_t_end < 0.0) {
    throw util::Error(
        "field 'transient_t_end' must be finite and >= 0 (0 = auto)");
  }

  AnalogBlock block =
      request.deck.empty()
          ? circuits::FindInZoo(request.circuit).build()
          : MakeBlockFromDeck(spice::ParseDeck(request.deck));
  DftCircuit circuit = DftCircuit::Transform(block);
  const std::optional<CampaignAnalysis> analysis =
      ParseCampaignAnalysis(request.analysis);
  if (!analysis) {
    throw util::Error("analysis must be ac or transient, got '" +
                      request.analysis + "'");
  }

  // Fault universe: explicit selection, or the analysis default — the
  // paper's deviation list for AC, catastrophic opens+shorts for the
  // transient workload class (soft deviations barely move a step
  // response; opens and shorts reshape it).
  std::string universe = request.fault_universe;
  if (universe.empty()) {
    universe = *analysis == CampaignAnalysis::kTransient ? "catastrophic"
                                                         : "deviation";
  }
  std::vector<faults::Fault> fault_list;
  if (universe == "deviation") {
    fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  } else if (universe == "catastrophic") {
    fault_list = faults::MakeCatastrophicFaults(circuit.Circuit());
  } else if (universe == "both") {
    fault_list = faults::MergeFaultLists(
        {faults::MakeDeviationFaults(circuit.Circuit()),
         faults::MakeCatastrophicFaults(circuit.Circuit())});
  } else {
    throw util::Error(
        "fault universe must be deviation/catastrophic/both, got '" +
        universe + "'");
  }
  for (const ExtraFault& e : request.extra_faults) {
    fault_list.push_back(MakeExtraFault(e));
  }

  CampaignOptions options = MakePaperCampaignOptions();
  options.analysis = *analysis;
  if (request.transient_t_end > 0.0) {
    options.transient_t_end_s = request.transient_t_end;
  }
  if (request.transient_steps > 0) {
    options.transient_steps =
        static_cast<std::size_t>(request.transient_steps);
  }
  options.criteria.epsilon = request.eps;
  options.points_per_decade = static_cast<std::size_t>(request.ppd);
  if (request.tol == 0.0) {
    options.tolerance.reset();
  } else {
    options.tolerance->component_tolerance = request.tol;
    options.tolerance->samples = static_cast<std::size_t>(request.samples);
  }
  options.mna.sensitivity_screen = request.screen;
  options.threads = request.threads <= 0
                        ? 0
                        : static_cast<std::size_t>(request.threads);

  ConfigurationSpace space = circuit.Space();
  const std::size_t default_k =
      space.OpampCount() > 5 ? 2 : space.OpampCount();
  const std::size_t k = request.max_followers == -1
                            ? default_k
                            : static_cast<std::size_t>(request.max_followers);
  std::vector<ConfigVector> configs = space.UpToKFollowers(k);
  std::erase_if(configs, [](const ConfigVector& cv) {
    return cv.IsTransparent();
  });

  std::string name = request.deck.empty() ? request.circuit : "deck";
  std::string key =
      CampaignContentHash(circuit, fault_list, configs, options);
  return CampaignJob{std::move(circuit), std::move(fault_list),
                     std::move(configs), std::move(options),
                     std::move(name),    std::move(key)};
}

}  // namespace mcdft::core::server
