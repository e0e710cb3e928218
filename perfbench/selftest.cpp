// Self-test of the benchmark's own machinery:
//   perfbench_selftest [path/to/BENCHMARK.json]
// checks that the service-mix request sequence is a pure function of the
// seed, that the percentile helper reports a tail it cannot support as
// missing, and that BENCHMARK.json names exactly the driver's workloads
// and metrics, each matching [A-Za-z0-9_.-]+.  Exit 0 = all passed.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "support.hpp"
#include "util/json.hpp"

namespace {

namespace pb = mcdft::perfbench;
namespace json = mcdft::util::json;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void TestRequestSequence() {
  const auto a = pb::MakeRequestSequence(7, 21, 21);
  const auto b = pb::MakeRequestSequence(7, 21, 21);
  const auto c = pb::MakeRequestSequence(8, 21, 21);
  Expect(a == b, "same seed gives the same request sequence");
  Expect(a != c, "another seed gives another request sequence");
  Expect(a.size() == 42, "sequence holds every fresh key plus the repeats");
  std::set<std::size_t> seen;
  std::size_t repeats = 0;
  for (std::size_t key : a) {
    Expect(key < 21, "key index in range");
    if (!seen.insert(key).second) ++repeats;
  }
  Expect(seen.size() == 21, "every key is requested");
  Expect(repeats == 21, "repeats only name keys requested earlier");
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(static_cast<double>(100 - i));
  const auto p90 = pb::Percentile(v, 0.9);
  Expect(p90.has_value(), "p90 of 99 samples has 10 samples beyond it");
  Expect(p90 && std::fabs(*p90 - 89.2) < 1e-9, "p90 interpolates linearly");
  v.resize(90);
  Expect(!pb::Percentile(v, 0.9).has_value(),
         "p90 of 90 samples is missing (9 beyond)");
  std::vector<double> small(19, 1.0);
  Expect(!pb::Percentile(small, 0.5).has_value(),
         "p50 of 19 samples is missing (9 beyond)");
  small.push_back(1.0);
  small.push_back(3.0);
  const auto p50 = pb::Percentile(small, 0.5);
  Expect(p50.has_value() && *p50 == 1.0, "p50 of 21 samples is reported");
  Expect(!pb::Percentile({}, 0.5).has_value(), "empty input is missing");
  Expect(pb::Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of even count");
}

void TestManifest(const std::string& path) {
  json::Value manifest;
  try {
    manifest = json::ParseFile(path);
  } catch (const std::exception& e) {
    Expect(false, "cannot read " + path + ": " + e.what());
    return;
  }
  std::set<std::string> names;
  const auto check_name = [&](const std::string& name) {
    Expect(pb::ValidMetricName(name), "name '" + name + "' is [A-Za-z0-9_.-]+");
    Expect(names.insert(name).second, "name '" + name + "' is used once");
  };
  std::vector<std::string> workloads;
  for (const json::Value& w : manifest.Get("workloads").Items()) {
    workloads.push_back(w.Get("name").AsString());
    check_name(workloads.back());
  }
  Expect(workloads == pb::WorkloadNames(),
         "BENCHMARK.json workloads match the driver");
  const auto check_metrics = [&](const char* key,
                                 const std::vector<pb::MetricSpec>& specs) {
    const auto& listed = manifest.Get(key).Items();
    Expect(listed.size() == specs.size(),
           std::string(key) + " lists every driver metric");
    for (std::size_t i = 0; i < listed.size() && i < specs.size(); ++i) {
      const std::string name = listed[i].Get("name").AsString();
      check_name(name);
      Expect(name == specs[i].name, std::string(key) + " entry " + name +
                                        " matches driver metric " +
                                        specs[i].name);
      Expect(listed[i].Get("unit").AsString() == specs[i].unit,
             "unit of " + name + " matches the driver");
      Expect(listed[i].Get("better").AsString() == specs[i].better,
             "direction of " + name + " matches the driver");
    }
  };
  check_metrics("end_to_end", pb::EndToEndMetrics());
  check_metrics("per_layer", pb::PerLayerMetrics());
  Expect(!pb::ValidMetricName("wall s"), "a space is not a valid name");
  Expect(!pb::ValidMetricName(""), "an empty name is not valid");
}

}  // namespace

int main(int argc, char** argv) {
  TestRequestSequence();
  TestPercentile();
  TestManifest(argc > 1 ? argv[1] : "BENCHMARK.json");
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
