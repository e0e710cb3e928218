// The adjoint sensitivity screen (ISSUE 9) is a *scheduling* optimization:
// it may only decide which (fault, omega) cells are worth an exact solve,
// never what the campaign reports.  These tests pin that contract — every
// verdict-bearing output of a screened campaign must be bit-identical to
// the unscreened run at every thread count and across shard merges, the
// screen must never misclassify a cell even when fault deviations are
// swept right up against the detection threshold, the solve-count saving
// it buys must be real (>= 3x fewer SMW solves on cascade6), and the
// daemon request schema's screen field must round-trip without disturbing
// pre-screen wire bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "circuits/zoo.hpp"
#include "core/server/request.hpp"
#include "core/shard.hpp"
#include "faults/fault_list.hpp"
#include "faults/sensitivity_screen.hpp"
#include "spice/mna.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::core {
namespace {

namespace fs = std::filesystem;
namespace json = util::json;

struct Prepared {
  DftCircuit circuit;
  std::vector<faults::Fault> fault_list;
  std::vector<ConfigVector> configs;
};

Prepared PrepareCircuit(const char* name) {
  auto block = circuits::FindInZoo(name).build();
  DftCircuit circuit = DftCircuit::Transform(block);
  auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  auto space = circuit.Space();
  std::vector<ConfigVector> configs = space.OpampCount() > 5
                                          ? space.UpToKFollowers(1)
                                          : space.UpToKFollowers(2);
  std::erase_if(configs,
                [](const ConfigVector& cv) { return cv.IsTransparent(); });
  return Prepared{std::move(circuit), std::move(fault_list),
                  std::move(configs)};
}

CampaignOptions FastOptions(std::size_t threads, bool screen) {
  CampaignOptions options = MakePaperCampaignOptions();
  options.points_per_decade = 5;
  options.tolerance->samples = 4;
  options.threads = threads;
  options.mna.sensitivity_screen = screen;
  return options;
}

/// Every verdict-bearing byte of two campaign runs must match: the
/// detectability matrix, the omega table, per-point masks and intervals,
/// thresholds, nominal responses and the quarantine bookkeeping.  The
/// region's quantitative deviation arrays are deliberately NOT compared:
/// screened cells store the first-order estimate instead of the exact
/// deviation (that is the whole saving), which is why the content hash
/// separates screened from unscreened checkpoints.
void ExpectVerdictsIdentical(const CampaignResult& a, const CampaignResult& b,
                             const std::string& what) {
  ASSERT_EQ(a.ConfigCount(), b.ConfigCount()) << what;
  ASSERT_EQ(a.FaultCount(), b.FaultCount()) << what;
  EXPECT_EQ(a.DetectabilityMatrix(), b.DetectabilityMatrix()) << what;
  EXPECT_EQ(a.Coverage(), b.Coverage()) << what;
  EXPECT_EQ(a.AverageOmegaDet(), b.AverageOmegaDet()) << what;
  EXPECT_EQ(a.QuarantinedCellCount(), b.QuarantinedCellCount()) << what;

  const auto omega_a = a.OmegaTable();
  const auto omega_b = b.OmegaTable();
  ASSERT_EQ(omega_a.size(), omega_b.size()) << what;
  for (std::size_t i = 0; i < omega_a.size(); ++i) {
    ASSERT_EQ(omega_a[i].size(), omega_b[i].size()) << what;
    for (std::size_t j = 0; j < omega_a[i].size(); ++j) {
      EXPECT_EQ(omega_a[i][j], omega_b[i][j])
          << what << " omega[" << i << "][" << j << "]";
    }
  }

  for (std::size_t i = 0; i < a.ConfigCount(); ++i) {
    const ConfigResult& ra = a.PerConfig()[i];
    const ConfigResult& rb = b.PerConfig()[i];
    EXPECT_EQ(ra.config, rb.config) << what;
    EXPECT_EQ(ra.threshold, rb.threshold) << what << " threshold row " << i;
    EXPECT_EQ(ra.relative_floor, rb.relative_floor) << what;
    ASSERT_EQ(ra.nominal.PointCount(), rb.nominal.PointCount()) << what;
    for (std::size_t p = 0; p < ra.nominal.PointCount(); ++p) {
      EXPECT_EQ(ra.nominal.values[p], rb.nominal.values[p])
          << what << " nominal row " << i << " point " << p;
    }
    ASSERT_EQ(ra.faults.size(), rb.faults.size()) << what;
    for (std::size_t f = 0; f < ra.faults.size(); ++f) {
      const auto& fa = ra.faults[f];
      const auto& fb = rb.faults[f];
      const std::string where =
          what + " config " + std::to_string(i) + " fault " +
          std::to_string(f) + " (" + fa.fault.Label() + ")";
      EXPECT_EQ(fa.detectable, fb.detectable) << where;
      EXPECT_EQ(fa.omega_detectability, fb.omega_detectability) << where;
      EXPECT_EQ(fa.quarantined_points, fb.quarantined_points) << where;
      EXPECT_EQ(fa.region.mask, fb.region.mask) << where;
      EXPECT_EQ(fa.region.magnitude_mask, fb.region.magnitude_mask) << where;
      EXPECT_EQ(fa.region.intervals, fb.region.intervals) << where;
      EXPECT_EQ(fa.region.measure, fb.region.measure) << where;
    }
  }
}

// --- Gate semantics ----------------------------------------------------

TEST(SensitivityScreenGate, RequiresScreenOptionAndLowRankPath) {
  // The low-rank path is the only AC fault path: it always binds a sparse
  // nominal factorization for the adjoint to transpose-solve against, so
  // only the option gates the screen.
  spice::MnaOptions options;  // default: screen on
  EXPECT_TRUE(spice::SensitivityScreenEnabled(options));

  spice::MnaOptions off = options;
  off.sensitivity_screen = false;
  EXPECT_FALSE(spice::SensitivityScreenEnabled(off));
}

TEST(SensitivityScreenGate, ScreenableKindsAreSoftDeviationsOnly) {
  EXPECT_TRUE(faults::ScreenableFaultKind(faults::FaultKind::kDeviationUp));
  EXPECT_TRUE(faults::ScreenableFaultKind(faults::FaultKind::kDeviationDown));
  EXPECT_FALSE(faults::ScreenableFaultKind(faults::FaultKind::kOpen));
  EXPECT_FALSE(faults::ScreenableFaultKind(faults::FaultKind::kShort));
  EXPECT_FALSE(
      faults::ScreenableFaultKind(faults::FaultKind::kGainDegradation));
  EXPECT_FALSE(
      faults::ScreenableFaultKind(faults::FaultKind::kBandwidthDegradation));

  // The linearization trust cap: deviations past kMaxScreenableDeviation
  // take the exact path even though the kind is screenable.
  EXPECT_TRUE(faults::ScreenableFault(
      faults::Fault("R1", faults::FaultKind::kDeviationUp, 0.2)));
  EXPECT_TRUE(faults::ScreenableFault(faults::Fault(
      "R1", faults::FaultKind::kDeviationDown,
      faults::kMaxScreenableDeviation)));
  EXPECT_FALSE(faults::ScreenableFault(
      faults::Fault("R1", faults::FaultKind::kDeviationUp, 0.3)));
  EXPECT_FALSE(faults::ScreenableFault(
      faults::Fault("R1", faults::FaultKind::kOpen, 0.1)));
}

// --- ScreenCell classification ----------------------------------------

TEST(SensitivityScreenCell, GuardBandKeepsNearThresholdCellsExact) {
  using linalg::Complex;
  const Complex nominal(1.0, 0.0);
  const double threshold = 0.1;
  const double margin = 3.0;

  // Far below threshold even after margin: skip as undetected.
  EXPECT_TRUE(
      faults::ScreenCell(nominal, Complex(0.01, 0.0), 1.0, threshold, margin)
          .skip);
  // Far above with the magnitude deviation clearing the threshold by the
  // full additive budget (0.9 > 0.1 + (2/3) * 0.9): skip as detected.
  EXPECT_TRUE(
      faults::ScreenCell(nominal, Complex(0.9, 0.0), 1.0, threshold, margin)
          .skip);
  // Inside the guard band on either side: solve exactly.
  EXPECT_FALSE(
      faults::ScreenCell(nominal, Complex(0.09, 0.0), 1.0, threshold, margin)
          .skip);
  EXPECT_FALSE(
      faults::ScreenCell(nominal, Complex(0.15, 0.0), 1.0, threshold, margin)
          .skip);
  // A clearly-detected complex deviation whose *magnitude* deviation does
  // not clear the threshold by the additive cancellation budget must not
  // be skipped: |1 + 0.4i| - 1 ~ 0.077 < 0.1 + (2/3) * 0.4 even though
  // |0.4i| = 0.4 > 0.3 (guard rejection).
  EXPECT_FALSE(
      faults::ScreenCell(nominal, Complex(0.0, 0.4), 1.0, threshold, margin)
          .skip);
  // Non-finite estimates never skip.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      faults::ScreenCell(nominal, Complex(inf, 0.0), 1.0, threshold, margin)
          .skip);
}

// --- Campaign-wide differential ----------------------------------------

// Campaign-level screen tests pin exact verdict and counter identities, so
// they opt out of any armed-suite MCDFT_FAULTPOINTS spec (injected SMW
// failures would perturb the solve counters and the retry bookkeeping).
class ScreenCampaign : public ::testing::Test {
 protected:
  void SetUp() override { util::faultpoint::DisarmAll(); }
  void TearDown() override { util::faultpoint::DisarmAll(); }
};

TEST_F(ScreenCampaign, VerdictsIdenticalAcrossCircuitsAndThreads) {
  for (const char* name : {"biquad", "khn", "cascade6"}) {
    const Prepared p = PrepareCircuit(name);
    const CampaignResult unscreened = RunCampaign(
        p.circuit, p.fault_list, p.configs, FastOptions(1, false));
    for (std::size_t threads : {1u, 2u, 8u}) {
      const CampaignResult screened = RunCampaign(
          p.circuit, p.fault_list, p.configs, FastOptions(threads, true));
      ExpectVerdictsIdentical(unscreened, screened,
                              std::string(name) + " screened @" +
                                  std::to_string(threads) + " threads");
    }
  }
}

TEST_F(ScreenCampaign, CutsCascade6SolvesAtLeastThreefold) {
  const Prepared p = PrepareCircuit("cascade6");
  const util::metrics::ScopedEnable metrics_on;
  util::metrics::Counter& smw = util::metrics::GetCounter("linalg.smw.update");
  util::metrics::Counter& skipped_undet =
      util::metrics::GetCounter("faults.screen.screened_undetected");
  util::metrics::Counter& skipped_det =
      util::metrics::GetCounter("faults.screen.screened_detected");
  util::metrics::Counter& borderline =
      util::metrics::GetCounter("faults.screen.borderline");
  util::metrics::Counter& adjoints =
      util::metrics::GetCounter("faults.screen.adjoint_solves");

  const std::uint64_t smw_before = smw.Value();
  const CampaignResult unscreened =
      RunCampaign(p.circuit, p.fault_list, p.configs, FastOptions(2, false));
  const std::uint64_t unscreened_solves = smw.Value() - smw_before;

  const std::uint64_t smw_mid = smw.Value();
  const std::uint64_t skipped_before =
      skipped_undet.Value() + skipped_det.Value();
  const std::uint64_t borderline_before = borderline.Value();
  const std::uint64_t adjoints_before = adjoints.Value();
  const CampaignResult screened =
      RunCampaign(p.circuit, p.fault_list, p.configs, FastOptions(2, true));
  const std::uint64_t screened_solves = smw.Value() - smw_mid;
  const std::uint64_t skipped = skipped_undet.Value() + skipped_det.Value() -
                                skipped_before;
  const std::uint64_t kept = borderline.Value() - borderline_before;

  ExpectVerdictsIdentical(unscreened, screened, "cascade6 counter run");
  // The headline claim: >= 3x fewer per-cell SMW fault solves, with the
  // skipped + kept split accounting for every unscreened solve.
  EXPECT_GT(unscreened_solves, 0u);
  EXPECT_LE(screened_solves * 3, unscreened_solves)
      << "screened " << screened_solves << " vs unscreened "
      << unscreened_solves;
  EXPECT_EQ(skipped + kept, unscreened_solves);
  EXPECT_GT(adjoints.Value(), adjoints_before);
  ::testing::Test::RecordProperty(
      "screened_fraction",
      std::to_string(static_cast<double>(skipped) /
                     static_cast<double>(unscreened_solves)));
}

class ScreenShardMerge : public ::testing::Test {
 protected:
  void SetUp() override {
    // Byte-identity claims require undisturbed checkpoint writes: opt out
    // of any armed-suite MCDFT_FAULTPOINTS spec.
    util::faultpoint::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("mcdft_screen_shard_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    util::faultpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(ScreenShardMerge, ScreenedMergesMatchUnscreenedMonolithic) {
  for (const char* name : {"biquad", "khn", "cascade6"}) {
    const Prepared p = PrepareCircuit(name);
    const CampaignResult unscreened = RunCampaign(
        p.circuit, p.fault_list, p.configs, FastOptions(2, false));
    const CampaignOptions screened_options = FastOptions(2, true);

    for (std::size_t count : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
      std::vector<std::string> paths;
      for (std::size_t index = 0; index < count; ++index) {
        ShardRunOptions shard_options;
        shard_options.shard = ShardSpec{index, count};
        shard_options.checkpoint_dir =
            (dir_ / (std::string(name) + std::to_string(count))).string();
        const ShardRunResult run =
            RunCampaignShard(p.circuit, p.fault_list, p.configs,
                             screened_options, shard_options);
        EXPECT_TRUE(run.complete)
            << name << ", " << count << " shards, index " << index;
        paths.push_back(run.shard_path);
      }
      const MergedCampaign merged = MergeShards(paths);
      EXPECT_EQ(merged.shard_files, count);
      ExpectVerdictsIdentical(unscreened, merged.campaign,
                              std::string(name) + " " +
                                  std::to_string(count) + "-shard merge");
    }
  }
}

// --- Near-threshold safety fuzz ----------------------------------------

TEST_F(ScreenCampaign, NoMisclassificationWithDeviationsNearEpsilon) {
  // Sweep fault deviation magnitudes from well below to well above the
  // tester accuracy so plenty of cells land right at the detection
  // boundary, then demand verdict-identity cell by cell.  The guard band
  // must shunt every ambiguous cell to the exact path — a single flipped
  // mask bit here is a screen correctness bug, not noise.
  const util::metrics::ScopedEnable metrics_on;
  util::metrics::Counter& borderline =
      util::metrics::GetCounter("faults.screen.borderline");
  util::metrics::Counter& guard =
      util::metrics::GetCounter("faults.screen.guard_rejects");
  util::metrics::Counter& skipped_undet =
      util::metrics::GetCounter("faults.screen.screened_undetected");
  util::metrics::Counter& skipped_det =
      util::metrics::GetCounter("faults.screen.screened_detected");
  const std::uint64_t cells_before = borderline.Value() + guard.Value() +
                                     skipped_undet.Value() +
                                     skipped_det.Value();
  const std::uint64_t kept_before = borderline.Value() + guard.Value();

  for (const char* name : {"biquad", "khn"}) {
    auto block = circuits::FindInZoo(name).build();
    DftCircuit circuit = DftCircuit::Transform(block);

    // Per component: up/down deviations stepping toward and past epsilon
    // (8 % accuracy, +/-3 % tolerance envelope on top), including the
    // kMaxScreenableDeviation trust boundary and one magnitude past it
    // (which must take the exact path and hence cannot misclassify).
    std::vector<faults::Fault> fault_list;
    for (const auto& seed_fault :
         faults::MakeDeviationFaults(circuit.Circuit())) {
      if (seed_fault.Kind() != faults::FaultKind::kDeviationUp) continue;
      for (const double magnitude :
           {0.02, 0.05, 0.07, 0.08, 0.09, 0.11, 0.16, 0.20, 0.25, 0.30}) {
        fault_list.emplace_back(seed_fault.Device(),
                                faults::FaultKind::kDeviationUp, magnitude);
        fault_list.emplace_back(seed_fault.Device(),
                                faults::FaultKind::kDeviationDown, magnitude);
      }
    }
    ASSERT_FALSE(fault_list.empty());

    auto space = circuit.Space();
    std::vector<ConfigVector> configs = space.UpToKFollowers(1);
    std::erase_if(configs,
                  [](const ConfigVector& cv) { return cv.IsTransparent(); });

    const CampaignResult unscreened =
        RunCampaign(circuit, fault_list, configs, FastOptions(2, false));
    const CampaignResult screened =
        RunCampaign(circuit, fault_list, configs, FastOptions(2, true));
    ExpectVerdictsIdentical(unscreened, screened,
                            std::string(name) + " near-threshold sweep");
  }

  const std::uint64_t cells = borderline.Value() + guard.Value() +
                              skipped_undet.Value() + skipped_det.Value() -
                              cells_before;
  const std::uint64_t kept = borderline.Value() + guard.Value() - kept_before;
  ASSERT_GT(cells, 0u);
  const double borderline_fraction =
      static_cast<double>(kept) / static_cast<double>(cells);
  ::testing::Test::RecordProperty("borderline_fraction",
                                  std::to_string(borderline_fraction));
  std::printf("[          ] near-threshold borderline fraction: %.3f "
              "(%llu of %llu screened cells solved exactly)\n",
              borderline_fraction, static_cast<unsigned long long>(kept),
              static_cast<unsigned long long>(cells));
  // The sweep is built to straddle the threshold, so a healthy guard band
  // keeps a visible share of cells on the exact path — and a screen that
  // solved *everything* exactly would be no screen at all.
  EXPECT_GT(borderline_fraction, 0.0);
  EXPECT_LT(borderline_fraction, 1.0);
}

// --- Daemon request wire format -----------------------------------------

TEST(ScreenRequest, WireFieldsRoundTripAndStayBackCompat) {
  using server::CampaignRequest;
  using server::RequestFromJson;
  using server::RequestToJson;

  // A default request must not grow new wire fields: daemon dedup and
  // result-cache keys hash the serialized request, so existing clients'
  // submissions keep their bytes.
  const std::string default_wire = RequestToJson(CampaignRequest{}).Serialize();
  EXPECT_EQ(default_wire.find("screen"), std::string::npos);

  CampaignRequest r;
  r.screen = false;
  const CampaignRequest back =
      RequestFromJson(json::Parse(RequestToJson(r).Serialize()));
  EXPECT_FALSE(back.screen);

  // The guard margin is a constant now.  Older clients may still send the
  // retired `screen_margin` field: like any unknown field it is ignored,
  // so the request serializes (and keys) exactly as it would without it.
  const auto wire = [](const std::string& body) {
    return RequestToJson(RequestFromJson(json::Parse(body))).Serialize();
  };
  EXPECT_EQ(wire(R"({"screen_margin":0.5})"), default_wire);
  EXPECT_EQ(wire(R"({"screen_margin":4.0,"screen":false})"),
            wire(R"({"screen":false})"));

  // BuildCampaignJob maps the field onto the campaign options verbatim.
  CampaignRequest job_request;
  job_request.circuit = "biquad";
  job_request.ppd = 5;
  job_request.samples = 4;
  job_request.screen = false;
  const auto job = server::BuildCampaignJob(job_request);
  EXPECT_FALSE(job.options.mna.sensitivity_screen);
}

}  // namespace
}  // namespace mcdft::core
