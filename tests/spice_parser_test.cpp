#include "spice/parser.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "spice/elements.hpp"
#include "spice/mna.hpp"
#include "spice/writer.hpp"

namespace mcdft::spice {
namespace {

TEST(Parser, FullDeck) {
  const std::string deck = R"(My little filter
* a comment line
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1u
.ac dec 10 1 1meg
.probe v(out)
.end
)";
  ParsedDeck d = ParseDeck(deck);
  EXPECT_EQ(d.netlist.Title(), "My little filter");
  EXPECT_EQ(d.netlist.ElementCount(), 3u);
  ASSERT_TRUE(d.sweep.has_value());
  EXPECT_DOUBLE_EQ(d.sweep->FStart(), 1.0);
  EXPECT_DOUBLE_EQ(d.sweep->FStop(), 1e6);
  ASSERT_EQ(d.probes.size(), 1u);
  EXPECT_EQ(d.probes[0].plus, d.netlist.FindNode("out"));
  EXPECT_EQ(d.probes[0].minus, kGround);
}

TEST(Parser, ParsedDeckIsSimulatable) {
  ParsedDeck d = ParseDeck(
      "V1 in 0 AC 1\nR1 in out 1k\nR2 out 0 1k\n.end\n");
  auto sol = MnaSystem(d.netlist).SolveAcHz(1e3);
  EXPECT_NEAR(std::abs(sol.VoltageAt(d.netlist.FindNode("out"))), 0.5, 1e-9);
}

TEST(Parser, EngineeringSuffixes) {
  ParsedDeck d = ParseDeck("R1 a 0 4.7k\nC1 a 0 2.2n\nL1 a 0 10m\n");
  EXPECT_DOUBLE_EQ(d.netlist.GetElement("R1").Value(), 4700.0);
  EXPECT_DOUBLE_EQ(d.netlist.GetElement("C1").Value(), 2.2e-9);
  EXPECT_DOUBLE_EQ(d.netlist.GetElement("L1").Value(), 10e-3);
}

TEST(Parser, ContinuationLines) {
  ParsedDeck d = ParseDeck("R1 a\n+ 0\n+ 10k\n");
  EXPECT_DOUBLE_EQ(d.netlist.GetElement("R1").Value(), 1e4);
}

TEST(Parser, SemicolonComments) {
  ParsedDeck d = ParseDeck("R1 a 0 1k ; the input resistor\n");
  EXPECT_EQ(d.netlist.ElementCount(), 1u);
}

TEST(Parser, SourceVariants) {
  ParsedDeck d = ParseDeck(
      "V1 a 0 5\n"
      "V2 b 0 DC 2 AC 0.5 90\n"
      "I1 c 0 1m\n"
      "R1 a 0 1\nR2 b 0 1\nR3 c 0 1\n");
  const auto& v1 = static_cast<const VoltageSource&>(d.netlist.GetElement("V1"));
  EXPECT_DOUBLE_EQ(v1.Dc(), 5.0);
  const auto& v2 = static_cast<const VoltageSource&>(d.netlist.GetElement("V2"));
  EXPECT_DOUBLE_EQ(v2.Dc(), 2.0);
  EXPECT_DOUBLE_EQ(v2.AcMagnitude(), 0.5);
  EXPECT_DOUBLE_EQ(v2.AcPhaseDeg(), 90.0);
  EXPECT_NEAR(v2.AcPhasor().imag(), 0.5, 1e-12);
}

TEST(Parser, ControlledSources) {
  ParsedDeck d = ParseDeck(
      "V1 in 0 1\n"
      "R1 in 0 1k\n"
      "E1 e 0 in 0 2\n"
      "G1 0 g in 0 1m\n"
      "H1 h 0 V1 100\n"
      "F1 0 f V1 3\n"
      "R2 e 0 1k\nR3 g 0 1k\nR4 h 0 1k\nR5 f 0 1k\n");
  EXPECT_EQ(d.netlist.GetElement("E1").Kind(), ElementKind::kVcvs);
  EXPECT_EQ(d.netlist.GetElement("G1").Kind(), ElementKind::kVccs);
  EXPECT_EQ(d.netlist.GetElement("H1").Kind(), ElementKind::kCcvs);
  EXPECT_EQ(d.netlist.GetElement("F1").Kind(), ElementKind::kCccs);
  EXPECT_EQ(static_cast<const Ccvs&>(d.netlist.GetElement("H1")).ControlSource(),
            "V1");
}

TEST(Parser, OpampCardPlain) {
  ParsedDeck d = ParseDeck("O1 p n out A0=2e5\nR1 p 0 1\nR2 n out 1\n");
  const auto& op = static_cast<const Opamp&>(d.netlist.GetElement("O1"));
  EXPECT_DOUBLE_EQ(op.Model().a0, 2e5);
  EXPECT_FALSE(op.IsConfigurable());
  EXPECT_EQ(op.InTest(), kGround);
}

TEST(Parser, OpampCardConfigurable) {
  ParsedDeck d = ParseDeck(
      "O1 p n out tnode CONFIGURABLE MODE=FOLLOWER\n"
      "R1 p 0 1\nR2 n out 1\nR3 tnode 0 1\n");
  const auto& op = static_cast<const Opamp&>(d.netlist.GetElement("O1"));
  EXPECT_TRUE(op.IsConfigurable());
  EXPECT_EQ(op.Mode(), OpampMode::kFollower);
  EXPECT_EQ(op.InTest(), d.netlist.FindNode("tnode"));
}

TEST(Parser, OpampModels) {
  ParsedDeck d = ParseDeck(
      "O1 a b c MODEL=IDEAL\n"
      "O2 a b d GBW=5meg A0=1e5\n"
      "R1 a 0 1\nR2 b c 1\nR3 b d 1\n");
  EXPECT_EQ(static_cast<const Opamp&>(d.netlist.GetElement("O1")).Model().kind,
            OpampModelKind::kIdeal);
  const auto& o2 = static_cast<const Opamp&>(d.netlist.GetElement("O2"));
  EXPECT_EQ(o2.Model().kind, OpampModelKind::kSinglePole);
  EXPECT_DOUBLE_EQ(o2.Model().gbw, 5e6);
}

TEST(Parser, ProbeDifferential) {
  ParsedDeck d = ParseDeck("R1 a b 1k\n.probe v(a,b)\n");
  ASSERT_EQ(d.probes.size(), 1u);
  EXPECT_EQ(d.probes[0].plus, d.netlist.FindNode("a"));
  EXPECT_EQ(d.probes[0].minus, d.netlist.FindNode("b"));
}

TEST(Parser, AcLinCard) {
  ParsedDeck d = ParseDeck("R1 a 0 1\n.ac lin 11 100 200\n");
  ASSERT_TRUE(d.sweep.has_value());
  EXPECT_EQ(d.sweep->PointCount(), 11u);
}

struct BadDeck {
  const char* text;
  std::size_t line;
  const char* name;  // the case's CTest name; see PrintTo
};

// The default printer dumps the struct's bytes, and the text pointer among
// them moves with the load address, so the CTest name of a case would
// change from one build to the next.  Print the fixed name instead.
void PrintTo(const BadDeck& d, std::ostream* os) { *os << d.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadDeck> {};

TEST_P(ParserErrorTest, ReportsLineNumber) {
  try {
    ParseDeck(GetParam().text);
    FAIL() << "expected ParseError for: " << GetParam().text;
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.line(), GetParam().line) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BadDecks, ParserErrorTest,
    ::testing::Values(
        BadDeck{".title t\nR1 a 0\n", 2, "missing_value"},
        BadDeck{"R1 a 0 xyz\n", 1, "bad_value"},
        BadDeck{"+ cont\n", 1, "leading_continuation"},
        BadDeck{".title t\nQ1 a b c\n", 2, "unknown_card"},
        BadDeck{".title t\n.frobnicate\n", 2, "unknown_directive"},
        BadDeck{".ac oct 5 1 10\nR1 a 0 1\n", 1, "bad_sweep_kind"},
        BadDeck{".probe w(out)\n", 1, "bad_probe"},
        BadDeck{"V1 a 0 DC\n", 1, "dc_without_value"},
        BadDeck{"O1 a b\n", 1, "opamp_short_card"},
        BadDeck{"O1 a b c MODEL=WEIRD\n", 1, "bad_opamp_model"},
        BadDeck{".end\nR1 a 0 1\n", 2, "content_after_end"}));

TEST(Parser, DuplicateElementIsNetlistError) {
  EXPECT_THROW(ParseDeck("R1 a 0 1\nR1 b 0 2\n"), util::NetlistError);
}

TEST(Parser, MissingFileThrows) {
  EXPECT_THROW(ParseDeckFile("/nonexistent/file.cir"), util::Error);
}

TEST(Writer, DeckRoundTrip) {
  Netlist nl("roundtrip");
  nl.AddVoltageSource("V1", "in", "0", 1.0, 2.0, 45.0);
  nl.AddResistor("R1", "in", "mid", 4.7e3);
  nl.AddCapacitor("C1", "mid", "0", 2.2e-9);
  nl.AddInductor("L1", "mid", "out", 1e-3);
  nl.AddVcvs("E1", "e", "0", "out", "0", 3.0);
  nl.AddCcvs("H1", "h", "0", "V1", 50.0);
  nl.AddResistor("RL1", "e", "0", 1e3);
  nl.AddResistor("RL2", "h", "0", 1e3);
  nl.AddResistor("RL3", "out", "0", 1e3);
  auto& op = static_cast<Opamp&>(nl.AddOpamp("OP1", "out", "e", "oo"));
  op.MakeConfigurable(nl.Node("in"));
  nl.AddResistor("RL4", "oo", "0", 1e3);

  const std::string deck = WriteDeck(nl);
  ParsedDeck re = ParseDeck(deck);
  EXPECT_EQ(re.netlist.Title(), "roundtrip");
  EXPECT_EQ(re.netlist.ElementCount(), nl.ElementCount());
  EXPECT_NEAR(re.netlist.GetElement("R1").Value(), 4.7e3, 1.0);
  EXPECT_NEAR(re.netlist.GetElement("C1").Value(), 2.2e-9, 1e-12);
  const auto& rop = static_cast<const Opamp&>(re.netlist.GetElement("OP1"));
  EXPECT_TRUE(rop.IsConfigurable());
  EXPECT_EQ(re.netlist.NodeName(rop.InTest()), "in");
  const auto& rv = static_cast<const VoltageSource&>(re.netlist.GetElement("V1"));
  EXPECT_DOUBLE_EQ(rv.AcPhaseDeg(), 45.0);
}

TEST(Writer, RoundTripPreservesAcBehaviour) {
  Netlist nl("rc");
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddCapacitor("C1", "out", "0", 1e-6);
  ParsedDeck re = ParseDeck(WriteDeck(nl));
  auto s1 = MnaSystem(nl).SolveAcHz(159.0);
  auto s2 = MnaSystem(re.netlist).SolveAcHz(159.0);
  EXPECT_NEAR(std::abs(s1.VoltageAt(nl.FindNode("out")) -
                       s2.VoltageAt(re.netlist.FindNode("out"))),
              0.0, 1e-9);
}

TEST(Writer, CardContainsNameNodesParams) {
  Netlist nl;
  nl.AddResistor("R1", "a", "b", 1e3);
  const std::string card = WriteCard(nl, nl.GetElement("R1"));
  EXPECT_EQ(card, "R1 a b 1k");
}

}  // namespace
}  // namespace mcdft::spice
