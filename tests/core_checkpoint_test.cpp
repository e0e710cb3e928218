// The shard checkpoint file format (core/checkpoint): exact JSONL
// round-trip, CRC-guided salvage of damaged files on the resume path, the
// legacy /1 reader, and the corruption cases that must fail loudly — a
// foreign schema version and a stale content hash each produce a
// CheckpointError whose message says what is wrong and which file/hash is
// involved, while strict (merge-path) loading refuses any damaged record.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "circuits/zoo.hpp"
#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "faults/fault_list.hpp"
#include "util/faultpoint.hpp"

namespace mcdft::core {
namespace {

namespace fs = std::filesystem;

/// Expect `fn` to throw a CheckpointError whose message contains every
/// `needles` fragment; returns the message for further inspection.
template <typename Fn>
std::string ExpectCheckpointError(Fn&& fn,
                                  const std::vector<std::string>& needles) {
  try {
    fn();
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "diagnostic missing '" << needle << "': " << what;
    }
    return what;
  }
  ADD_FAILURE() << "expected CheckpointError";
  return {};
}

/// A document's shard text, from its header and unit record lines.
std::string DocumentText(const ShardDocument& doc) {
  std::vector<std::string> lines;
  for (const ShardUnitResult& u : doc.units) lines.push_back(ShardUnitLine(u));
  return ShardToText(ShardHeaderLine(doc.manifest), lines);
}

class CheckpointFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    // These tests pin exact checkpoint bytes and damage files on purpose;
    // an armed-suite MCDFT_FAULTPOINTS spec must not add its own faults.
    util::faultpoint::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("mcdft_checkpoint_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);

    auto block = circuits::FindInZoo("biquad").build();
    circuit_ = std::make_unique<DftCircuit>(DftCircuit::Transform(block));
    fault_list_ = faults::MakeDeviationFaults(circuit_->Circuit());
    const std::size_t opamps = circuit_->ConfigurableOpamps().size();
    configs_ = {ConfigVector(opamps)};
    auto follower = ConfigVector(opamps);
    follower.SetSelection(0, true);
    configs_.push_back(follower);

    options_ = MakePaperCampaignOptions();
    options_.points_per_decade = 5;
    options_.tolerance->samples = 6;
    options_.threads = 1;
  }

  void TearDown() override {
    util::faultpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  /// Run the whole campaign as one shard and return its checkpoint path.
  std::string RunWholeShard() {
    ShardRunOptions shard_options;
    shard_options.checkpoint_dir = (dir_ / "ck").string();
    const ShardRunResult run = RunCampaignShard(*circuit_, fault_list_,
                                                configs_, options_,
                                                shard_options);
    EXPECT_TRUE(run.complete);
    return run.shard_path;
  }

  fs::path dir_;
  std::unique_ptr<DftCircuit> circuit_;
  std::vector<faults::Fault> fault_list_;
  std::vector<ConfigVector> configs_;
  CampaignOptions options_;
};

TEST_F(CheckpointFiles, ShardFileNameEmbedsSpec) {
  EXPECT_EQ(ShardFileName(ShardSpec{0, 1}), "shard-0of1.json");
  EXPECT_EQ(ShardFileName(ShardSpec{2, 4}), "shard-2of4.json");
}

TEST_F(CheckpointFiles, JsonlRoundTripIsByteExact) {
  const std::string path = RunWholeShard();
  const ShardDocument doc = LoadShardFile(path);
  EXPECT_EQ(doc.manifest.shard, (ShardSpec{0, 1}));
  EXPECT_EQ(doc.manifest.circuit, circuit_->Name());
  EXPECT_EQ(doc.manifest.config_bits.size(), configs_.size());
  EXPECT_EQ(doc.manifest.fault_list.size(), fault_list_.size());
  ASSERT_EQ(doc.units.size(), configs_.size());

  // serialize -> parse -> serialize must reproduce the same bytes: the
  // whole bit-identical-merge story rests on this (util/json emits
  // round-trip-exact doubles).
  const std::string first = DocumentText(doc);
  const ShardDocument reparsed = ShardFromText(first);
  EXPECT_EQ(DocumentText(reparsed), first);

  // And the on-disk file is exactly the serialized document: a compact
  // header line plus one CRC-carrying record line per unit.
  std::ifstream in(path, std::ios::binary);
  std::string on_disk((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, first);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(on_disk.begin(), on_disk.end(), '\n')),
            1 + doc.units.size());
  EXPECT_NE(on_disk.find(kShardSchema), std::string::npos);
  EXPECT_NE(on_disk.find("\"crc32\":\""), std::string::npos);
}

TEST_F(CheckpointFiles, TruncatedFileSalvagesOnResume) {
  const std::string path = RunWholeShard();
  std::ifstream in(path, std::ios::binary);
  std::string pristine((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::size_t header_end = pristine.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  ASSERT_GT(pristine.size() / 2, header_end);
  // Chop the file mid-record, as a crashed non-atomic writer would.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << pristine.substr(0, pristine.size() / 2);

  // The strict (merge-path) loader refuses the damaged file outright.
  ExpectCheckpointError([&] { LoadShardFile(path); },
                        {path, "unit record", "truncated"});

  // The salvaging loader keeps every CRC-intact record and names the one
  // it dropped.
  ShardSalvage salvage;
  const ShardDocument salvaged = SalvageShardFile(path, salvage);
  EXPECT_LT(salvaged.units.size(), configs_.size());
  EXPECT_EQ(salvage.units_loaded, salvaged.units.size());
  ASSERT_FALSE(salvage.damaged.empty());
  EXPECT_NE(salvage.damaged.front().find("truncated"), std::string::npos);

  // Resume recomputes only the damaged units and restores the checkpoint
  // to the exact pristine bytes (recomputation is bit-identical).
  ShardRunOptions shard_options;
  shard_options.checkpoint_dir = (dir_ / "ck").string();
  const ShardRunResult rerun = RunCampaignShard(*circuit_, fault_list_,
                                                configs_, options_,
                                                shard_options);
  EXPECT_TRUE(rerun.complete);
  EXPECT_EQ(rerun.units_resumed, salvaged.units.size());
  EXPECT_EQ(rerun.units_run, configs_.size() - salvaged.units.size());
  EXPECT_FALSE(rerun.salvage_diagnostics.empty());
  std::ifstream again(path, std::ios::binary);
  std::string repaired((std::istreambuf_iterator<char>(again)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(repaired, pristine);
}

TEST_F(CheckpointFiles, CorruptRecordFailsItsCrcAndIsSalvagedAround) {
  const std::string path = RunWholeShard();
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip payload content inside the *last* record while keeping the line
  // valid JSON: only the CRC can notice.
  const std::size_t pos = bytes.rfind("\"relative_floor\":");
  ASSERT_NE(pos, std::string::npos);
  ASSERT_GT(pos, bytes.find('\n'));
  const std::size_t digit = bytes.find_first_of("0123456789", pos + 17);
  ASSERT_NE(digit, std::string::npos);
  bytes[digit] = bytes[digit] == '9' ? '8' : static_cast<char>(bytes[digit] + 1);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  ExpectCheckpointError([&] { LoadShardFile(path); },
                        {path, "unit record", "CRC"});

  ShardSalvage salvage;
  const ShardDocument salvaged = SalvageShardFile(path, salvage);
  EXPECT_EQ(salvaged.units.size(), configs_.size() - 1);
  ASSERT_EQ(salvage.damaged.size(), 1u);
  EXPECT_NE(salvage.damaged.front().find("CRC"), std::string::npos);
}

TEST_F(CheckpointFiles, LegacyV1DocumentStillResumes) {
  const std::string path = RunWholeShard();
  std::ifstream in(path, std::ios::binary);
  std::string pristine((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();

  // Downgrade the JSONL file to the /1 single-document layout: coords and
  // payload members flat on each unit object, no CRCs.
  namespace json = util::json;
  std::size_t start = pristine.find('\n') + 1;
  json::Value head = json::Parse(pristine.substr(0, start - 1));
  json::Value legacy = json::Value::Object();
  legacy.Set("schema", json::Value::Str(kShardSchemaV1));
  legacy.Set("manifest", head.Get("manifest"));
  json::Value units = json::Value::Array();
  while (start < pristine.size()) {
    const std::size_t end = pristine.find('\n', start);
    json::Value record = json::Parse(pristine.substr(start, end - start));
    json::Value unit = json::Value::Object();
    unit.Set("config", record.Get("config"));
    unit.Set("fault_begin", record.Get("fault_begin"));
    unit.Set("fault_end", record.Get("fault_end"));
    for (const auto& [key, value] : record.Get("payload").Members()) {
      unit.Set(key, value);
    }
    units.PushBack(std::move(unit));
    start = end + 1;
  }
  legacy.Set("units", std::move(units));
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << legacy.Serialize() << "\n";

  // Both loaders read it, and a resume restores every unit without
  // recomputing anything — then rewrites the file in the /2 layout.
  const ShardDocument loaded = LoadShardFile(path);
  EXPECT_EQ(loaded.units.size(), configs_.size());
  ShardRunOptions shard_options;
  shard_options.checkpoint_dir = (dir_ / "ck").string();
  const ShardRunResult rerun = RunCampaignShard(*circuit_, fault_list_,
                                                configs_, options_,
                                                shard_options);
  EXPECT_TRUE(rerun.complete);
  EXPECT_EQ(rerun.units_resumed, configs_.size());
  EXPECT_EQ(rerun.units_run, 0u);
  std::ifstream again(path, std::ios::binary);
  std::string upgraded((std::istreambuf_iterator<char>(again)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(upgraded, pristine);
}

TEST_F(CheckpointFiles, SchemaVersionMismatchFailsWithBothVersions) {
  const std::string path = RunWholeShard();
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::size_t pos = bytes.find(kShardSchema);
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, std::string(kShardSchema).size(), "mcdft.shard/99");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  ExpectCheckpointError([&] { LoadShardFile(path); },
                        {path, "schema-version mismatch", "mcdft.shard/99",
                         kShardSchema});
}

TEST_F(CheckpointFiles, StaleContentHashFailsResumeWithBothHashes) {
  const std::string path = RunWholeShard();
  const std::string old_hash =
      CampaignContentHash(*circuit_, fault_list_, configs_, options_);

  // Same checkpoint dir, different campaign inputs: the epsilon change
  // invalidates every stored verdict.
  CampaignOptions changed = options_;
  changed.criteria.epsilon *= 2.0;
  const std::string new_hash =
      CampaignContentHash(*circuit_, fault_list_, configs_, changed);
  ASSERT_NE(new_hash, old_hash);

  ShardRunOptions shard_options;
  shard_options.checkpoint_dir = (dir_ / "ck").string();
  ExpectCheckpointError(
      [&] {
        RunCampaignShard(*circuit_, fault_list_, configs_, changed,
                         shard_options);
      },
      {path, "different campaign inputs", old_hash, new_hash,
       "delete the checkpoint directory"});
}

TEST_F(CheckpointFiles, ForeignShardSpecInCheckpointDirFailsResume) {
  const std::string path = RunWholeShard();
  // Rewrite the manifest to claim the file belongs to shard 1/3 while
  // keeping the name shard-0of1.json: a mis-copied artifact.
  ShardDocument doc = LoadShardFile(path);
  doc.manifest.shard = ShardSpec{1, 3};
  WriteShardText(DocumentText(doc), path);

  ShardRunOptions shard_options;
  shard_options.checkpoint_dir = (dir_ / "ck").string();
  ExpectCheckpointError(
      [&] {
        RunCampaignShard(*circuit_, fault_list_, configs_, options_,
                         shard_options);
      },
      {path, "shard 1of3", "shard 0of1"});
}

}  // namespace
}  // namespace mcdft::core
