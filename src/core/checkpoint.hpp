// The shard checkpoint file format (schema "mcdft.shard/2").
//
// One JSONL document per shard: the first line is a compact header object
// binding the file to its campaign inputs (content hash, configuration
// set, fault list, reference band, probe label, shard spec); every further
// line is one completed work unit carrying a partial ConfigResult row at
// full double precision (the util/json serializer emits round-trip-exact
// numbers) plus a CRC32 over the record body.  The file is rewritten with
// an atomic rename + fsync after every completed unit, so an interrupted
// run resumes from the last completed unit and a crash can never leave a
// half-written checkpoint behind.
//
// The per-unit CRC makes damage *localizable*: a bit flip or truncation
// invalidates only the records it touches, and the salvaging loader
// (SalvageShardFile) recovers every intact unit so resume recomputes only
// the damaged ones.  The strict loader (LoadShardFile, used by merge)
// still refuses the whole file.  Legacy "mcdft.shard/1" single-document
// checkpoints are still read by both loaders (all-or-nothing: /1 has no
// per-unit CRC to salvage with).
//
// Documented in DESIGN.md "Sharding & checkpointing" and "Resilience &
// failure semantics".
#pragma once

#include <string>
#include <vector>

#include "core/shard.hpp"
#include "util/json.hpp"

namespace mcdft::core {

/// A checkpoint that cannot be trusted: malformed/truncated JSON, wrong
/// schema version, manifest mismatch (stale content hash, foreign shard
/// spec), overlapping or gapped coverage.  Resume and merge fail with this
/// rather than mixing bad data into a campaign.
class CheckpointError : public util::Error {
 public:
  explicit CheckpointError(const std::string& what)
      : Error("checkpoint: " + what) {}
};

inline constexpr const char* kShardSchema = "mcdft.shard/2";
inline constexpr const char* kShardSchemaV1 = "mcdft.shard/1";

/// Everything needed to validate a shard file against its siblings and to
/// reconstitute the campaign frame on merge.
struct ShardManifest {
  ShardSpec shard;
  std::string circuit;                    ///< circuit name (reporting only)
  std::string content_hash;               ///< CampaignContentHash of inputs
  std::vector<std::string> config_bits;   ///< row order, "101"-style
  std::vector<faults::Fault> fault_list;  ///< column order
  double band_f_lo = 0.0;                 ///< reference band, exact doubles
  double band_f_hi = 0.0;
  std::size_t band_points_per_decade = 0;
  std::string probe_label;                ///< e.g. "v(out)"

  /// Analysis of the campaign cells: "ac" (the default — omitted on disk,
  /// so existing AC checkpoints stay byte-identical) or "transient", with
  /// the *resolved* window and step count (shards must reuse these values,
  /// never re-derive the auto window).
  std::string analysis = "ac";
  double transient_t_end_s = 0.0;
  std::size_t transient_steps = 0;

  testability::ReferenceBand Band() const;

  /// The unit grid responses are stored against: the band's sweep
  /// frequencies for AC, the resolved time grid for transient.
  std::vector<double> Grid() const;

  /// True when two manifests describe the same campaign (everything but
  /// the shard spec matches exactly).
  bool SameCampaign(const ShardManifest& other) const;
};

/// One completed unit: the owned cell range and its partial row.
/// `partial.faults` holds exactly [unit.fault_begin, unit.fault_end) in
/// fault order; nominal/threshold/relative_floor are the full-row values
/// (identical across shards splitting one configuration, validated on
/// merge).  Quarantine state round-trips: the nominal response's mask and
/// each fault's quarantined_points (absent in legacy /1 files = none).
struct ShardUnitResult {
  ShardUnit unit;
  ConfigResult partial;
};

/// A shard checkpoint: manifest + the units completed so far.
struct ShardDocument {
  ShardManifest manifest;
  std::vector<ShardUnitResult> units;
};

/// Seal a JSON object as a self-checking record line: the object is
/// serialized compactly, a CRC32 over those bytes is computed, and a
/// `crc32` member is spliced in just before the closing brace.  The
/// per-unit records of "mcdft.shard/2" and the result cache's disk tier
/// ("mcdft.cache/1") share this framing, so both salvage the same way.
std::string SealCrcRecord(const util::json::Value& record);

/// Verify and parse a sealed record line.  Throws CheckpointError when the
/// crc32 member is missing, the line is not valid JSON, or the stored CRC
/// does not match the covered bytes.
util::json::Value OpenCrcRecord(const std::string& line);

/// The compact header line of a shard file (without its newline).
std::string ShardHeaderLine(const ShardManifest& manifest);

/// One unit's compact CRC-carrying record line (without its newline).  A
/// completed unit's line never changes, so a shard run seals it once and
/// rewrites the file from the header plus the sealed lines.
std::string ShardUnitLine(const ShardUnitResult& unit);

/// A shard file's on-disk JSONL text: the header line, then the unit
/// record lines in order, each ending in '\n'.  Empty entries (units not
/// run yet) are skipped.
std::string ShardToText(const std::string& header,
                        const std::vector<std::string>& unit_lines);

/// What SalvageShardFile recovered and what it had to drop.
struct ShardSalvage {
  std::size_t units_loaded = 0;        ///< intact units returned
  std::vector<std::string> damaged;    ///< one named diagnostic per bad record
};

/// Parse and validate shard text (either schema).  Throws CheckpointError
/// with a diagnostic that names what is wrong (the caller adds the file
/// path).  With `salvage == nullptr` any damaged unit record is fatal;
/// otherwise damaged /2 records are dropped into `salvage->damaged` and
/// the intact units are returned (header damage is always fatal — without
/// a trusted manifest nothing in the file can be attributed).
ShardDocument ShardFromText(const std::string& text,
                            ShardSalvage* salvage = nullptr);

/// Checkpoint file name for a shard: "shard-<i>of<N>.json".
std::string ShardFileName(const ShardSpec& spec);

/// Load a shard checkpoint file strictly (used by merge).  Wraps parse/
/// validation failures in a CheckpointError naming the path (a truncated
/// or otherwise malformed file is reported as such, never silently
/// ignored).
ShardDocument LoadShardFile(const std::string& path);

/// Load a shard checkpoint file, salvaging what the per-unit CRCs vouch
/// for (used by resume).  Damaged unit records are dropped with a named
/// diagnostic in `salvage` and counted in the
/// `core.checkpoint.salvaged_units` / `core.checkpoint.damaged_units`
/// metrics; a damaged header still throws CheckpointError.
ShardDocument SalvageShardFile(const std::string& path,
                               ShardSalvage& salvage);

/// Write shard text (ShardToText) to `path` atomically (tmp + fsync +
/// rename, under the `checkpoint.write.*` faultpoints).  Throws
/// CheckpointError naming the path on failure.
void WriteShardText(const std::string& text, const std::string& path);

}  // namespace mcdft::core
