#include "core/checkpoint.hpp"

#include <cmath>
#include <fstream>
#include <iterator>

#include "util/crc32.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::core {

namespace json = util::json;
namespace metrics = util::metrics;

namespace {

faults::FaultKind KindFromName(const std::string& name) {
  for (const faults::FaultKind kind :
       {faults::FaultKind::kDeviationUp, faults::FaultKind::kDeviationDown,
        faults::FaultKind::kOpen, faults::FaultKind::kShort,
        faults::FaultKind::kGainDegradation,
        faults::FaultKind::kBandwidthDegradation}) {
    if (faults::FaultKindName(kind) == name) return kind;
  }
  throw CheckpointError("unknown fault kind '" + name + "'");
}

json::Value MaskToJson(const std::vector<bool>& mask) {
  std::string s(mask.size(), '0');
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) s[i] = '1';
  }
  return json::Value::Str(std::move(s));
}

std::vector<bool> MaskFromJson(const json::Value& v, std::size_t expect,
                               const char* what) {
  const std::string& s = v.AsString();
  if (s.size() != expect) {
    throw CheckpointError(std::string(what) + " mask has " +
                          std::to_string(s.size()) + " bits, want " +
                          std::to_string(expect));
  }
  std::vector<bool> mask(s.size(), false);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '0' && s[i] != '1') {
      throw CheckpointError(std::string(what) + " mask has non-binary digit");
    }
    mask[i] = s[i] == '1';
  }
  return mask;
}

template <typename T>
json::Value NumbersToJson(const std::vector<T>& values) {
  json::Value a = json::Value::Array();
  for (const T v : values) a.PushBack(json::Value::Number(static_cast<double>(v)));
  return a;
}

template <typename T>
std::vector<T> NumbersFromJson(const json::Value& v, std::size_t expect,
                               const char* what) {
  if (!v.IsArray() || v.Size() != expect) {
    throw CheckpointError(std::string(what) + " has " +
                          std::to_string(v.IsArray() ? v.Size() : 0) +
                          " entries, want " + std::to_string(expect));
  }
  std::vector<T> out;
  out.reserve(v.Size());
  for (const json::Value& x : v.Items()) {
    out.push_back(static_cast<T>(x.AsDouble()));
  }
  return out;
}

json::Value ComplexToJson(const std::vector<std::complex<double>>& values) {
  json::Value a = json::Value::Array();
  for (const auto& z : values) {
    a.PushBack(json::Value::Number(z.real()));
    a.PushBack(json::Value::Number(z.imag()));
  }
  return a;
}

std::vector<std::complex<double>> ComplexFromJson(const json::Value& v,
                                                  std::size_t expect,
                                                  const char* what) {
  if (!v.IsArray() || v.Size() != 2 * expect) {
    throw CheckpointError(std::string(what) + " has " +
                          std::to_string(v.IsArray() ? v.Size() : 0) +
                          " scalars, want " + std::to_string(2 * expect));
  }
  std::vector<std::complex<double>> out;
  out.reserve(expect);
  for (std::size_t i = 0; i < expect; ++i) {
    out.emplace_back(v.At(2 * i).AsDouble(), v.At(2 * i + 1).AsDouble());
  }
  return out;
}

json::Value FaultToJson(const faults::Fault& f) {
  json::Value o = json::Value::Object();
  o.Set("device", json::Value::Str(f.Device()));
  o.Set("kind", json::Value::Str(std::string(faults::FaultKindName(f.Kind()))));
  o.Set("magnitude", json::Value::Number(f.Magnitude()));
  return o;
}

faults::Fault FaultFromJson(const json::Value& v) {
  return faults::Fault(v.Get("device").AsString(),
                       KindFromName(v.Get("kind").AsString()),
                       v.Get("magnitude").AsDouble());
}

json::Value DetectabilityToJson(const testability::FaultDetectability& fd) {
  json::Value o = json::Value::Object();
  o.Set("detectable", json::Value::Bool(fd.detectable));
  o.Set("omega_detectability", json::Value::Number(fd.omega_detectability));
  o.Set("peak_deviation", json::Value::Number(fd.peak_deviation));
  o.Set("peak_frequency_hz", json::Value::Number(fd.peak_frequency_hz));
  if (fd.quarantined_points > 0) {
    o.Set("quarantined_points",
          json::Value::Number(
              static_cast<std::uint64_t>(fd.quarantined_points)));
  }
  json::Value region = json::Value::Object();
  region.Set("mask", MaskToJson(fd.region.mask));
  region.Set("magnitude_mask", MaskToJson(fd.region.magnitude_mask));
  region.Set("deviation", NumbersToJson(fd.region.deviation));
  region.Set("magnitude_deviation",
             NumbersToJson(fd.region.magnitude_deviation));
  json::Value intervals = json::Value::Array();
  for (const auto& [lo, hi] : fd.region.intervals) {
    intervals.PushBack(json::Value::Number(lo));
    intervals.PushBack(json::Value::Number(hi));
  }
  region.Set("intervals", std::move(intervals));
  region.Set("measure", json::Value::Number(fd.region.measure));
  o.Set("region", std::move(region));
  return o;
}

testability::FaultDetectability DetectabilityFromJson(
    const json::Value& v, const faults::Fault& fault, std::size_t points) {
  testability::FaultDetectability fd(fault);
  fd.detectable = v.Get("detectable").AsBool();
  fd.omega_detectability = v.Get("omega_detectability").AsDouble();
  fd.peak_deviation = v.Get("peak_deviation").AsDouble();
  fd.peak_frequency_hz = v.Get("peak_frequency_hz").AsDouble();
  if (const json::Value* qp = v.Find("quarantined_points")) {
    fd.quarantined_points = static_cast<std::size_t>(qp->AsDouble());
  }
  const json::Value& region = v.Get("region");
  fd.region.mask = MaskFromJson(region.Get("mask"), points, "region");
  fd.region.magnitude_mask =
      MaskFromJson(region.Get("magnitude_mask"), points, "region magnitude");
  fd.region.deviation =
      NumbersFromJson<float>(region.Get("deviation"), points, "deviation");
  fd.region.magnitude_deviation = NumbersFromJson<float>(
      region.Get("magnitude_deviation"), points, "magnitude deviation");
  const json::Value& intervals = region.Get("intervals");
  if (!intervals.IsArray() || intervals.Size() % 2 != 0) {
    throw CheckpointError("region intervals must hold [lo, hi] pairs");
  }
  for (std::size_t i = 0; i < intervals.Size(); i += 2) {
    fd.region.intervals.emplace_back(intervals.At(i).AsDouble(),
                                     intervals.At(i + 1).AsDouble());
  }
  fd.region.measure = region.Get("measure").AsDouble();
  return fd;
}

json::Value ManifestToJson(const ShardManifest& m) {
  json::Value o = json::Value::Object();
  json::Value shard = json::Value::Object();
  shard.Set("index", json::Value::Number(
                         static_cast<std::uint64_t>(m.shard.index)));
  shard.Set("count", json::Value::Number(
                         static_cast<std::uint64_t>(m.shard.count)));
  o.Set("shard", std::move(shard));
  o.Set("circuit", json::Value::Str(m.circuit));
  o.Set("content_hash", json::Value::Str(m.content_hash));
  json::Value configs = json::Value::Array();
  for (const auto& bits : m.config_bits) configs.PushBack(json::Value::Str(bits));
  o.Set("configs", std::move(configs));
  json::Value flist = json::Value::Array();
  for (const auto& f : m.fault_list) flist.PushBack(FaultToJson(f));
  o.Set("faults", std::move(flist));
  json::Value band = json::Value::Object();
  band.Set("f_lo_hz", json::Value::Number(m.band_f_lo));
  band.Set("f_hi_hz", json::Value::Number(m.band_f_hi));
  band.Set("points_per_decade",
           json::Value::Number(
               static_cast<std::uint64_t>(m.band_points_per_decade)));
  o.Set("band", std::move(band));
  o.Set("probe_label", json::Value::Str(m.probe_label));
  if (m.analysis != "ac") {
    // Emitted only for non-AC campaigns: existing AC checkpoints (and
    // their hashes in tests) stay byte-for-byte unchanged.
    o.Set("analysis", json::Value::Str(m.analysis));
    json::Value transient = json::Value::Object();
    transient.Set("t_end_s", json::Value::Number(m.transient_t_end_s));
    transient.Set("steps",
                  json::Value::Number(
                      static_cast<std::uint64_t>(m.transient_steps)));
    o.Set("transient", std::move(transient));
  }
  return o;
}

ShardManifest ManifestFromJson(const json::Value& v) {
  ShardManifest m;
  const json::Value& shard = v.Get("shard");
  m.shard.index = static_cast<std::size_t>(shard.Get("index").AsDouble());
  m.shard.count = static_cast<std::size_t>(shard.Get("count").AsDouble());
  m.shard.Validate();
  m.circuit = v.Get("circuit").AsString();
  m.content_hash = v.Get("content_hash").AsString();
  for (const json::Value& bits : v.Get("configs").Items()) {
    m.config_bits.push_back(bits.AsString());
  }
  for (const json::Value& f : v.Get("faults").Items()) {
    m.fault_list.push_back(FaultFromJson(f));
  }
  const json::Value& band = v.Get("band");
  m.band_f_lo = band.Get("f_lo_hz").AsDouble();
  m.band_f_hi = band.Get("f_hi_hz").AsDouble();
  m.band_points_per_decade = static_cast<std::size_t>(
      band.Get("points_per_decade").AsDouble());
  m.probe_label = v.Get("probe_label").AsString();
  if (const json::Value* analysis = v.Find("analysis")) {
    m.analysis = analysis->AsString();
    if (m.analysis != "ac" && m.analysis != "transient") {
      throw CheckpointError("unknown campaign analysis '" + m.analysis + "'");
    }
    if (m.analysis == "transient") {
      const json::Value& transient = v.Get("transient");
      m.transient_t_end_s = transient.Get("t_end_s").AsDouble();
      m.transient_steps =
          static_cast<std::size_t>(transient.Get("steps").AsDouble());
      if (m.transient_steps == 0 || !(m.transient_t_end_s > 0.0)) {
        throw CheckpointError("transient manifest needs a positive window "
                              "and >= 1 step");
      }
    }
  }
  if (m.config_bits.empty()) {
    throw CheckpointError("manifest has an empty configuration set");
  }
  if (m.fault_list.empty()) {
    throw CheckpointError("manifest has an empty fault list");
  }
  return m;
}

void ValidateUnitRange(const ShardUnit& unit, const ShardManifest& m) {
  if (unit.config >= m.config_bits.size() ||
      unit.fault_begin >= unit.fault_end ||
      unit.fault_end > m.fault_list.size()) {
    throw CheckpointError(
        "unit (config " + std::to_string(unit.config) + ", faults [" +
        std::to_string(unit.fault_begin) + ", " +
        std::to_string(unit.fault_end) + ")) is outside the campaign's " +
        std::to_string(m.config_bits.size()) + "x" +
        std::to_string(m.fault_list.size()) + " work matrix");
  }
}

/// Serialize a unit's result payload (everything but the cell coordinates).
json::Value UnitPayloadToJson(const ShardUnitResult& u) {
  json::Value o = json::Value::Object();
  json::Value nominal = json::Value::Object();
  nominal.Set("label", json::Value::Str(u.partial.nominal.label));
  nominal.Set("values", ComplexToJson(u.partial.nominal.values));
  if (u.partial.nominal.QuarantinedCount() > 0) {
    nominal.Set("quarantined", MaskToJson(u.partial.nominal.quarantined));
  }
  o.Set("nominal", std::move(nominal));
  o.Set("threshold", NumbersToJson(u.partial.threshold));
  o.Set("relative_floor", json::Value::Number(u.partial.relative_floor));
  json::Value fl = json::Value::Array();
  for (const auto& fd : u.partial.faults) {
    fl.PushBack(DetectabilityToJson(fd));
  }
  o.Set("faults", std::move(fl));
  return o;
}

/// Parse a unit's result payload from `holder` into `u.partial`.  For /2
/// records `holder` is the "payload" member; legacy /1 unit objects keep
/// the same fields flat next to the coordinates, so the object itself is
/// passed.
void UnitPayloadFromJson(const json::Value& holder, ShardUnitResult& u,
                         const ShardManifest& m,
                         const std::vector<double>& grid) {
  const json::Value& nominal = holder.Get("nominal");
  u.partial.nominal.freqs_hz = grid;
  u.partial.nominal.label = nominal.Get("label").AsString();
  u.partial.nominal.values =
      ComplexFromJson(nominal.Get("values"), grid.size(), "nominal response");
  if (const json::Value* q = nominal.Find("quarantined")) {
    u.partial.nominal.quarantined =
        MaskFromJson(*q, grid.size(), "nominal quarantine");
  }
  u.partial.threshold =
      NumbersFromJson<double>(holder.Get("threshold"), grid.size(),
                              "threshold");
  u.partial.relative_floor = holder.Get("relative_floor").AsDouble();
  const json::Value& fl = holder.Get("faults");
  if (!fl.IsArray() || fl.Size() != u.unit.fault_end - u.unit.fault_begin) {
    throw CheckpointError("unit fault results do not match its fault range");
  }
  u.partial.faults.reserve(fl.Size());
  for (std::size_t k = 0; k < fl.Size(); ++k) {
    u.partial.faults.push_back(DetectabilityFromJson(
        fl.At(k), m.fault_list[u.unit.fault_begin + k], grid.size()));
  }
}

ShardUnitResult MakeEmptyUnit(const ShardUnit& unit, const ShardManifest& m) {
  return ShardUnitResult{
      unit,
      ConfigResult{ConfigVector::FromBits(m.config_bits[unit.config]),
                   {},
                   {},
                   {}}};
}

ShardUnitResult UnitFromRecordLine(const std::string& line,
                                   const ShardManifest& m,
                                   const std::vector<double>& grid) {
  json::Value o = OpenCrcRecord(line);
  ShardUnit unit;
  unit.config = static_cast<std::size_t>(o.Get("config").AsDouble());
  unit.fault_begin = static_cast<std::size_t>(o.Get("fault_begin").AsDouble());
  unit.fault_end = static_cast<std::size_t>(o.Get("fault_end").AsDouble());
  ValidateUnitRange(unit, m);
  ShardUnitResult u = MakeEmptyUnit(unit, m);
  UnitPayloadFromJson(o.Get("payload"), u, m, grid);
  return u;
}

/// Legacy "mcdft.shard/1" single-document loader (schema already checked).
ShardDocument ShardFromJsonV1(const json::Value& json) {
  ShardDocument doc{ManifestFromJson(json.Get("manifest")), {}};
  const ShardManifest& m = doc.manifest;
  const std::vector<double> grid = m.Grid();

  for (const json::Value& o : json.Get("units").Items()) {
    ShardUnit unit;
    unit.config = static_cast<std::size_t>(o.Get("config").AsDouble());
    unit.fault_begin = static_cast<std::size_t>(o.Get("fault_begin").AsDouble());
    unit.fault_end = static_cast<std::size_t>(o.Get("fault_end").AsDouble());
    ValidateUnitRange(unit, m);
    ShardUnitResult u = MakeEmptyUnit(unit, m);
    UnitPayloadFromJson(o, u, m, grid);
    doc.units.push_back(std::move(u));
  }
  return doc;
}

[[noreturn]] void ThrowSchemaMismatch(const std::string& found) {
  throw CheckpointError("schema-version mismatch: file has '" + found +
                        "', this build reads '" + kShardSchema +
                        "' (and legacy '" + kShardSchemaV1 + "')");
}

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError("cannot read shard file '" + path +
                          "' (truncated or corrupt?): open failed");
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw CheckpointError("cannot read shard file '" + path +
                          "' (truncated or corrupt?): read failed");
  }
  return text;
}

/// Re-throw a checkpoint diagnostic so it names the offending file
/// (stripping the inner "checkpoint: " prefix the constructor re-adds).
[[noreturn]] void RethrowNamingPath(const std::string& path,
                                    const util::Error& e) {
  std::string what = e.what();
  constexpr std::string_view prefix = "checkpoint: ";
  if (what.rfind(prefix, 0) == 0) what.erase(0, prefix.size());
  throw CheckpointError("in shard file '" + path + "': " + what);
}

}  // namespace

// The record line carries its own CRC32 so damage is localized to the
// records it touches: the CRC covers the record object serialized
// *without* the crc32 member, which is spliced in just before the closing
// brace.  The reader recovers the covered bytes with a reverse search for
// the marker — no re-serialization round trip is relied on.
static constexpr std::string_view kCrcMarker = ",\"crc32\":\"";

std::string SealCrcRecord(const util::json::Value& record) {
  std::string body = record.Serialize(0);
  const std::string crc = util::Crc32Hex(util::Crc32(body));
  body.pop_back();  // the closing '}'
  body.append(kCrcMarker);
  body += crc;
  body += "\"}";
  return body;
}

util::json::Value OpenCrcRecord(const std::string& line) {
  const std::size_t pos = line.rfind(kCrcMarker);
  if (pos == std::string::npos) {
    throw CheckpointError("record has no crc32 field");
  }
  std::string covered = line.substr(0, pos);
  covered += '}';
  const std::string computed = util::Crc32Hex(util::Crc32(covered));
  json::Value o;
  try {
    o = json::Parse(line);
  } catch (const util::Error& e) {
    throw CheckpointError(std::string("record is not valid JSON: ") +
                          e.what());
  }
  const std::string& stored = o.Get("crc32").AsString();
  if (stored != computed) {
    throw CheckpointError("record failed its CRC check (stored " + stored +
                          ", computed " + computed + ")");
  }
  return o;
}

testability::ReferenceBand ShardManifest::Band() const {
  return testability::ReferenceBand(band_f_lo, band_f_hi,
                                    band_points_per_decade);
}

std::vector<double> ShardManifest::Grid() const {
  if (analysis == "transient") {
    spice::TransientSpec spec;
    spec.t_end_s = transient_t_end_s;
    spec.steps = transient_steps;
    return spec.Times();
  }
  return Band().MakeSweep().Frequencies();
}

bool ShardManifest::SameCampaign(const ShardManifest& other) const {
  return content_hash == other.content_hash && circuit == other.circuit &&
         config_bits == other.config_bits && fault_list == other.fault_list &&
         band_f_lo == other.band_f_lo && band_f_hi == other.band_f_hi &&
         band_points_per_decade == other.band_points_per_decade &&
         probe_label == other.probe_label && analysis == other.analysis &&
         transient_t_end_s == other.transient_t_end_s &&
         transient_steps == other.transient_steps;
}

std::string ShardHeaderLine(const ShardManifest& manifest) {
  json::Value head = json::Value::Object();
  head.Set("schema", json::Value::Str(kShardSchema));
  head.Set("manifest", ManifestToJson(manifest));
  return head.Serialize(0);
}

std::string ShardUnitLine(const ShardUnitResult& u) {
  json::Value o = json::Value::Object();
  o.Set("config", json::Value::Number(
                      static_cast<std::uint64_t>(u.unit.config)));
  o.Set("fault_begin", json::Value::Number(
                           static_cast<std::uint64_t>(u.unit.fault_begin)));
  o.Set("fault_end", json::Value::Number(
                         static_cast<std::uint64_t>(u.unit.fault_end)));
  o.Set("payload", UnitPayloadToJson(u));
  return SealCrcRecord(o);
}

std::string ShardToText(const std::string& header,
                        const std::vector<std::string>& unit_lines) {
  std::string text = header;
  text += '\n';
  for (const std::string& line : unit_lines) {
    if (line.empty()) continue;
    text += line;
    text += '\n';
  }
  return text;
}

ShardDocument ShardFromText(const std::string& text, ShardSalvage* salvage) {
  // A legacy /1 checkpoint (or a unit-less /2 header) is one complete JSON
  // value; a /2 file with units is JSONL and never parses whole.
  bool whole_ok = false;
  json::Value whole;
  try {
    whole = json::Parse(text);
    whole_ok = true;
  } catch (const util::Error&) {
  }
  if (whole_ok) {
    const json::Value* schema = whole.Find("schema");
    if (schema == nullptr || !schema->IsString()) {
      throw CheckpointError("missing schema marker (not a shard file?)");
    }
    ShardDocument doc;
    if (schema->AsString() == kShardSchemaV1) {
      // Legacy documents have no per-unit CRC: they load all-or-nothing on
      // both the strict and the salvage path.
      doc = ShardFromJsonV1(whole);
    } else if (schema->AsString() == kShardSchema) {
      doc = ShardDocument{ManifestFromJson(whole.Get("manifest")), {}};
    } else {
      ThrowSchemaMismatch(schema->AsString());
    }
    if (salvage != nullptr) salvage->units_loaded = doc.units.size();
    return doc;
  }

  const std::size_t nl = text.find('\n');
  const std::string head_text =
      text.substr(0, nl == std::string::npos ? text.size() : nl);
  json::Value head;
  try {
    head = json::Parse(head_text);
  } catch (const util::Error& e) {
    throw CheckpointError(
        std::string("checkpoint header line is unreadable (truncated or "
                    "corrupt?): ") +
        e.what());
  }
  const json::Value* schema = head.Find("schema");
  if (schema == nullptr || !schema->IsString()) {
    throw CheckpointError("missing schema marker (not a shard file?)");
  }
  if (schema->AsString() != kShardSchema) {
    ThrowSchemaMismatch(schema->AsString());
  }
  ShardDocument doc{ManifestFromJson(head.Get("manifest")), {}};
  const std::vector<double> grid = doc.manifest.Grid();

  std::size_t line_no = 1;
  std::size_t start = nl == std::string::npos ? text.size() : nl + 1;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    const bool terminated = end != std::string::npos;
    const std::string line =
        text.substr(start, (terminated ? end : text.size()) - start);
    start = terminated ? end + 1 : text.size();
    ++line_no;
    if (line.empty()) continue;

    std::string damage;
    if (!terminated) {
      // The writer always terminates records, so a missing newline means
      // the tail of the file is gone.
      damage = "record is truncated (file ends mid-line)";
    } else if (util::faultpoint::AnyArmed() &&
               util::faultpoint::ShouldFail("checkpoint.read.unit")) {
      damage = "injected read fault (faultpoint checkpoint.read.unit)";
    }
    if (damage.empty()) {
      try {
        doc.units.push_back(UnitFromRecordLine(line, doc.manifest, grid));
        continue;
      } catch (const util::Error& e) {
        damage = e.what();
        constexpr std::string_view prefix = "checkpoint: ";
        if (damage.rfind(prefix, 0) == 0) damage.erase(0, prefix.size());
      }
    }
    const std::string diagnostic =
        "unit record at line " + std::to_string(line_no) + ": " + damage;
    if (salvage == nullptr) throw CheckpointError(diagnostic);
    salvage->damaged.push_back(diagnostic);
  }
  if (salvage != nullptr) salvage->units_loaded = doc.units.size();
  return doc;
}

std::string ShardFileName(const ShardSpec& spec) {
  return "shard-" + spec.Name() + ".json";
}

ShardDocument LoadShardFile(const std::string& path) {
  const std::string text = ReadFileText(path);
  try {
    return ShardFromText(text);
  } catch (const CheckpointError& e) {
    RethrowNamingPath(path, e);
  } catch (const util::Error& e) {
    throw CheckpointError("malformed shard file '" + path + "': " + e.what());
  }
}

ShardDocument SalvageShardFile(const std::string& path,
                               ShardSalvage& salvage) {
  const std::string text = ReadFileText(path);
  ShardDocument doc;
  try {
    doc = ShardFromText(text, &salvage);
  } catch (const CheckpointError& e) {
    RethrowNamingPath(path, e);
  } catch (const util::Error& e) {
    throw CheckpointError("malformed shard file '" + path + "': " + e.what());
  }
  if (!salvage.damaged.empty()) {
    metrics::GetCounter("core.checkpoint.damaged_units")
        .Add(salvage.damaged.size());
    metrics::GetCounter("core.checkpoint.salvaged_units")
        .Add(salvage.units_loaded);
  }
  return doc;
}

void WriteShardText(const std::string& text, const std::string& path) {
  try {
    json::WriteTextFileAtomic(text, path);
  } catch (const util::Error& e) {
    throw CheckpointError("cannot write shard file '" + path +
                          "': " + e.what());
  }
}

}  // namespace mcdft::core
