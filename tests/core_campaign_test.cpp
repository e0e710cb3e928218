#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>

#include "circuits/biquad.hpp"
#include "circuits/zoo.hpp"
#include "core/optimizer.hpp"
#include "core/server/request.hpp"
#include "paper_fixture.hpp"
#include "testability/metrics.hpp"
#include "util/faultpoint.hpp"

namespace mcdft::core {
namespace {

/// Fast campaign options for circuit-level tests (no Monte-Carlo envelope,
/// coarse grid).
CampaignOptions FastOptions() {
  CampaignOptions o;
  o.points_per_decade = 10;
  o.criteria.epsilon = 0.10;
  o.criteria.relative_floor = 0.25;
  return o;
}

TEST(Campaign, RunsAllConfigurations) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  auto campaign = RunCampaign(circuit, faults,
                              circuit.Space().AllNonTransparent(),
                              FastOptions());
  EXPECT_EQ(campaign.ConfigCount(), 7u);
  EXPECT_EQ(campaign.FaultCount(), 8u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(campaign.PerConfig()[i].config.Index(), i);
  }
}

TEST(Campaign, MatrixAndOmegaTableConsistent) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  auto campaign = RunCampaign(circuit, faults,
                              circuit.Space().AllNonTransparent(),
                              FastOptions());
  auto matrix = campaign.DetectabilityMatrix();
  auto omega = campaign.OmegaTable();
  for (std::size_t i = 0; i < campaign.ConfigCount(); ++i) {
    for (std::size_t j = 0; j < campaign.FaultCount(); ++j) {
      // Definition 1 and Definition 2 agree: detectable <=> omega > 0.
      EXPECT_EQ(matrix[i][j], omega[i][j] > 0.0);
      EXPECT_GE(omega[i][j], 0.0);
      EXPECT_LE(omega[i][j], 1.0);
    }
  }
}

TEST(Campaign, CampaignLeavesInputCircuitInFunctionalMode) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  RunCampaign(circuit, faults, {ConfigVector::FromIndex(3, 3)}, FastOptions());
  EXPECT_TRUE(circuit.CurrentConfiguration().IsFunctional());
  // Values untouched.
  EXPECT_DOUBLE_EQ(circuit.Circuit().GetElement("R1").Value(),
                   circuits::BiquadParams{}.r1);
}

TEST(Campaign, FunctionalOnlyIsSingleRow) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  auto campaign = AnalyzeFunctionalOnly(circuit, faults, FastOptions());
  EXPECT_EQ(campaign.ConfigCount(), 1u);
  EXPECT_TRUE(campaign.PerConfig()[0].config.IsFunctional());
}

TEST(Campaign, EmptyInputsRejected) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  EXPECT_THROW(RunCampaign(circuit, faults, {}, FastOptions()),
               util::AnalysisError);
  EXPECT_THROW(RunCampaign(circuit, {}, circuit.Space().All(), FastOptions()),
               util::AnalysisError);
}

TEST(Campaign, ExplicitAnchorOverridesEstimation) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  CampaignOptions o = FastOptions();
  o.anchor_hz = 500.0;
  o.decades_below = 1.0;
  o.decades_above = 1.0;
  auto campaign =
      RunCampaign(circuit, faults, {ConfigVector(3)}, o);
  EXPECT_NEAR(campaign.Band().FLow(), 50.0, 1e-9);
  EXPECT_NEAR(campaign.Band().FHigh(), 5000.0, 1e-9);
}

TEST(Campaign, AutoAnchorLandsNearF0) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  auto campaign = RunCampaign(circuit, faults, {ConfigVector(3)}, FastOptions());
  const double f0 = circuits::BiquadParams{}.F0();
  const double anchor =
      campaign.Band().FLow() * 100.0;  // 2 decades below anchor
  EXPECT_NEAR(std::log10(anchor), std::log10(f0), 0.5);
}

TEST(Campaign, ToleranceEnvelopeReducesDetections) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  CampaignOptions plain = FastOptions();
  plain.criteria.epsilon = 0.08;
  CampaignOptions with_tol = plain;
  with_tol.tolerance = testability::ToleranceModel{0.03, 16, 1234};
  auto c_plain = RunCampaign(circuit, faults, {ConfigVector(3)}, plain);
  auto c_tol = RunCampaign(circuit, faults, {ConfigVector(3)}, with_tol);
  // The envelope can only raise thresholds, so omega values cannot grow.
  for (std::size_t j = 0; j < faults.size(); ++j) {
    EXPECT_LE(c_tol.OmegaTable()[0][j], c_plain.OmegaTable()[0][j] + 1e-12);
  }
}

TEST(Campaign, ToleranceModelWithPresetEnvelopeThrows) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  CampaignOptions o = FastOptions();
  o.tolerance = testability::ToleranceModel{};
  o.criteria.envelope.assign(10, 0.1);
  EXPECT_THROW(RunCampaign(circuit, faults, {ConfigVector(3)}, o),
               util::AnalysisError);
}

TEST(Campaign, PaperOptionsAreDeterministic) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  auto o = MakePaperCampaignOptions();
  o.points_per_decade = 10;  // keep the test fast
  auto c1 = RunCampaign(circuit, faults, {ConfigVector(3)}, o);
  auto c2 = RunCampaign(circuit, faults, {ConfigVector(3)}, o);
  EXPECT_EQ(c1.OmegaTable(), c2.OmegaTable());
}

TEST(Campaign, BitIdenticalAcrossThreadCounts) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  auto o = MakePaperCampaignOptions();
  o.points_per_decade = 10;  // keep the test fast
  o.tolerance->samples = 8;
  o.threads = 1;
  auto serial = RunCampaign(circuit, faults,
                            circuit.Space().AllNonTransparent(), o);
  o.threads = 4;
  auto parallel = RunCampaign(circuit, faults,
                              circuit.Space().AllNonTransparent(), o);
  // The whole result is bit-identical, not merely close: responses,
  // thresholds (which embed the Monte-Carlo envelope), and verdicts.
  ASSERT_EQ(serial.ConfigCount(), parallel.ConfigCount());
  EXPECT_EQ(serial.OmegaTable(), parallel.OmegaTable());
  EXPECT_EQ(serial.DetectabilityMatrix(), parallel.DetectabilityMatrix());
  for (std::size_t i = 0; i < serial.ConfigCount(); ++i) {
    const auto& s = serial.PerConfig()[i];
    const auto& p = parallel.PerConfig()[i];
    EXPECT_EQ(s.threshold, p.threshold);
    ASSERT_EQ(s.nominal.values.size(), p.nominal.values.size());
    for (std::size_t k = 0; k < s.nominal.values.size(); ++k) {
      EXPECT_EQ(s.nominal.values[k], p.nominal.values[k]);
    }
  }
}

TEST(Campaign, RowOfFindsEveryConfigAndRejectsOthers) {
  DftCircuit circuit = circuits::BuildDftBiquad();
  auto faults = faults::MakeDeviationFaults(circuit.Circuit());
  auto campaign = RunCampaign(circuit, faults,
                              circuit.Space().AllNonTransparent(),
                              FastOptions());
  for (std::size_t i = 0; i < campaign.ConfigCount(); ++i) {
    EXPECT_EQ(campaign.RowOf(campaign.PerConfig()[i].config), i);
  }
  // The transparent configuration C7 was not simulated.
  EXPECT_THROW(campaign.RowOf(ConfigVector::FromIndex(7, 3)),
               util::OptimizationError);
  // Same index, different width: still a miss, not a false hit.
  EXPECT_THROW(campaign.RowOf(ConfigVector::FromIndex(2, 4)),
               util::OptimizationError);
}

TEST(Campaign, BestCaseSubsetRows) {
  auto campaign = testdata::PaperCampaign();
  auto best = campaign.BestCase({2, 5});
  // {C2, C5}: per-fault maxima 30,30,40,30,30,30,30,40 -> avg 32.5%.
  double avg = 0.0;
  for (const auto& d : best) avg += d.omega_detectability;
  EXPECT_NEAR(avg / best.size(), 0.325, 1e-9);
  EXPECT_THROW(campaign.BestCase({99}), util::OptimizationError);
}

TEST(Campaign, RaggedRowsRejected) {
  auto faults = testdata::PaperFaults();
  std::vector<ConfigResult> rows;
  ConfigResult row{ConfigVector::FromIndex(0, 3), {}};
  rows.push_back(row);  // empty fault list vs 8 faults
  EXPECT_THROW(CampaignResult(faults, std::move(rows),
                              testability::ReferenceBand(10.0, 1e5, 25)),
               util::AnalysisError);
}

/// Coverage and <w-det> of `rows` (empty = all) scored from copies: the
/// listed rows' entries combined by testability::BestCasePerFault.
std::pair<double, double> CopiedRowScores(
    const CampaignResult& campaign, const std::vector<std::size_t>& rows) {
  std::vector<std::vector<testability::FaultDetectability>> lists;
  if (rows.empty()) {
    for (const auto& cr : campaign.PerConfig()) lists.push_back(cr.faults);
  } else {
    for (std::size_t r : rows) lists.push_back(campaign.PerConfig()[r].faults);
  }
  const auto best = testability::BestCasePerFault(lists);
  return {testability::FaultCoverage(best),
          testability::AverageOmegaDetectability(best)};
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(CampaignScoring, InPlaceMatchesBestCasePerFault) {
  std::mt19937_64 rng(2718);
  for (const auto& entry : circuits::Zoo()) {
    server::CampaignRequest request;
    request.circuit = entry.name;
    const server::CampaignJob job = server::BuildCampaignJob(request);
    const CampaignResult campaign =
        RunCampaign(job.circuit, job.fault_list, job.configs, job.options);
    // Every minimal cover, all rows, and random lists with repeats.
    std::vector<std::vector<std::size_t>> lists{{}};
    for (const auto& cover :
         DftOptimizer(job.circuit, campaign).SolveFundamental().minimal_covers) {
      lists.push_back(cover.Variables());
    }
    for (int k = 0; k < 200; ++k) {
      std::vector<std::size_t> rows(1 + rng() % 8);
      for (auto& r : rows) r = rng() % campaign.ConfigCount();
      if (k % 2 == 0) rows.push_back(rows[rng() % rows.size()]);
      lists.push_back(std::move(rows));
    }
    for (const auto& rows : lists) {
      const auto [coverage, wdet] = CopiedRowScores(campaign, rows);
      ASSERT_TRUE(SameBits(campaign.Coverage(rows), coverage))
          << entry.name << ": " << ::testing::PrintToString(rows);
      ASSERT_TRUE(SameBits(campaign.AverageOmegaDet(rows), wdet))
          << entry.name << ": " << ::testing::PrintToString(rows);
    }
  }
}

TEST(CampaignScoring, ExactOmegaTiesKeepTheFirstListedRow) {
  // Three rows tie exactly on every fault's omega; only row 1 is marked
  // detectable and each row has its own peak frequency, so the winner shows.
  const auto faults = testdata::PaperFaults();
  std::vector<ConfigResult> rows;
  for (std::size_t r = 0; r < 3; ++r) {
    ConfigResult row{ConfigVector::FromIndex(r, 3), {}, {}, {}};
    for (const auto& f : faults) {
      testability::FaultDetectability d{f};
      d.detectable = r == 1;
      d.omega_detectability = 0.5;
      d.peak_frequency_hz = 100.0 * static_cast<double>(r + 1);
      row.faults.push_back(std::move(d));
    }
    rows.push_back(std::move(row));
  }
  const CampaignResult campaign(faults, std::move(rows),
                                testability::ReferenceBand(10.0, 1e5, 25));
  for (const auto& d : campaign.BestCase({2, 1, 0})) {
    EXPECT_EQ(d.peak_frequency_hz, 300.0);
  }
  EXPECT_EQ(campaign.Coverage({0, 1}), 0.0);
  EXPECT_EQ(campaign.Coverage({1, 0}), 1.0);
  EXPECT_EQ(campaign.Coverage(), 0.0);  // all rows: row 0 is listed first
  EXPECT_EQ(campaign.AverageOmegaDet({2, 0}), 0.5);
  for (const std::vector<std::size_t>& list :
       {std::vector<std::size_t>{}, {0, 1}, {1, 0}, {2, 1, 1, 0}}) {
    const auto [coverage, wdet] = CopiedRowScores(campaign, list);
    EXPECT_TRUE(SameBits(campaign.Coverage(list), coverage));
    EXPECT_TRUE(SameBits(campaign.AverageOmegaDet(list), wdet));
  }
}

TEST(CampaignScoring, RowOutOfRangeThrows) {
  const auto campaign = testdata::PaperCampaign();
  EXPECT_THROW(campaign.Coverage({99}), util::OptimizationError);
  EXPECT_THROW(campaign.AverageOmegaDet({0, 99}), util::OptimizationError);
  EXPECT_THROW(campaign.BestCase({7}), util::OptimizationError);
}

TEST(CampaignScoring, FaultOrderCheckedAtConstruction) {
  const auto faults = testdata::PaperFaults();
  std::vector<ConfigResult> rows;
  for (std::size_t r = 0; r < 2; ++r) {
    ConfigResult row{ConfigVector::FromIndex(r, 3), {}, {}, {}};
    for (const auto& f : faults) row.faults.emplace_back(f);
    rows.push_back(std::move(row));
  }
  std::swap(rows[1].faults[0], rows[1].faults[1]);
  EXPECT_THROW(CampaignResult(faults, std::move(rows),
                              testability::ReferenceBand(10.0, 1e5, 25)),
               util::AnalysisError);
}

// Every row AssembleConfigRow scores at the CLI defaults (`mcdft analyze`
// and `mcdft analyze --analysis transient` on each zoo circuit), pinned
// per circuit and analysis by FNV-1a 64 digest of each fault's per-point
// float deviations (complex and magnitude-only), both masks, omega, peak
// and quarantined-point count: how a row is scored must not move a verdict
// byte.  The campaigns must be undisturbed, so the test opts out of any
// armed MCDFT_FAULTPOINTS spec; the pins hold at any MCDFT_THREADS.
TEST(ConfigRowScoring, ZooRowsArePinned) {
  util::faultpoint::DisarmAll();
  namespace fp = util::faultpoint;
  const std::map<std::string, std::string> pins = {
      {"biquad/ac", "4d11b83063db4edb"},
      {"khn/ac", "866d925d03baa4a1"},
      {"ackerberg/ac", "4861191f45c413a1"},
      {"sallenkey/ac", "80d3525b79ab6fc2"},
      {"inamp/ac", "4eaacbce3623ad30"},
      {"notch/ac", "cc4cb642a77f64cb"},
      {"leapfrog/ac", "b068d7fe3416e3ee"},
      {"cascade6/ac", "73703820d465dbae"},
      {"biquad/transient", "52b0a472bf7cef03"},
      {"khn/transient", "ff51f860b789f387"},
      {"ackerberg/transient", "faa7976beb75d827"},
      {"sallenkey/transient", "c24cc42b25acc32c"},
      {"inamp/transient", "2aabfc01a4c41fb8"},
      {"notch/transient", "e19096830dbfc428"},
      {"leapfrog/transient", "1ee8ed6416335e51"},
      {"cascade6/transient", "cca031327d4921bc"},
  };
  const auto fold_float = [](std::uint64_t h, float v) {
    return fp::DigestCombine(h, std::bit_cast<std::uint32_t>(v));
  };
  const auto fold_double = [](std::uint64_t h, double v) {
    return fp::DigestCombine(h, std::bit_cast<std::uint64_t>(v));
  };
  for (const std::string analysis : {"ac", "transient"}) {
    for (const auto& entry : circuits::Zoo()) {
      server::CampaignRequest request;
      request.circuit = entry.name;
      request.analysis = analysis;
      const server::CampaignJob job = server::BuildCampaignJob(request);
      const CampaignResult campaign =
          RunCampaign(job.circuit, job.fault_list, job.configs, job.options);
      std::uint64_t h = fp::DigestBytes(nullptr, 0);
      for (const ConfigResult& row : campaign.PerConfig()) {
        for (const testability::FaultDetectability& d : row.faults) {
          const testability::DetectabilityRegion& r = d.region;
          for (std::size_t i = 0; i < r.mask.size(); ++i) {
            h = fold_float(h, r.deviation[i]);
            h = fold_float(h, r.magnitude_deviation[i]);
            h = fp::DigestCombine(h, (r.mask[i] ? 1u : 0u) |
                                         (r.magnitude_mask[i] ? 2u : 0u));
          }
          h = fold_double(h, d.omega_detectability);
          h = fold_double(h, d.peak_deviation);
          h = fold_double(h, d.peak_frequency_hz);
          h = fp::DigestCombine(h, d.quarantined_points);
        }
      }
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(h));
      const std::string key = std::string(entry.name) + "/" + analysis;
      ASSERT_EQ(pins.count(key), 1u) << key << " " << hex;
      EXPECT_EQ(std::string(hex), pins.at(key)) << key;
    }
  }
}

}  // namespace
}  // namespace mcdft::core
