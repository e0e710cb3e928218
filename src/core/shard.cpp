#include "core/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "core/checkpoint.hpp"
#include "spice/writer.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace mcdft::core {

namespace metrics = util::metrics;

void ShardSpec::Validate() const {
  if (count == 0) {
    throw util::AnalysisError("shard count must be >= 1");
  }
  if (index >= count) {
    throw util::AnalysisError("shard index " + std::to_string(index) +
                              " out of range for " + std::to_string(count) +
                              " shards");
  }
}

std::string ShardSpec::Name() const {
  return std::to_string(index) + "of" + std::to_string(count);
}

ShardSpec ParseShardSpec(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == text.size()) {
    throw util::AnalysisError("shard spec must be 'i/N', got '" + text + "'");
  }
  ShardSpec spec;
  try {
    std::size_t parsed = 0;
    spec.index = std::stoul(text.substr(0, slash), &parsed);
    if (parsed != slash) throw std::invalid_argument(text);
    const std::string count_text = text.substr(slash + 1);
    spec.count = std::stoul(count_text, &parsed);
    if (parsed != count_text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    throw util::AnalysisError("shard spec must be 'i/N', got '" + text + "'");
  }
  spec.Validate();
  return spec;
}

std::pair<std::size_t, std::size_t> ShardCellRange(std::size_t config_count,
                                                   std::size_t fault_count,
                                                   const ShardSpec& spec) {
  spec.Validate();
  // Same cut points as util::ParallelForRange's static partition: shard w
  // owns [w*cells/count, (w+1)*cells/count).
  const std::size_t cells = config_count * fault_count;
  return {spec.index * cells / spec.count,
          (spec.index + 1) * cells / spec.count};
}

std::vector<ShardUnit> ShardUnits(std::size_t config_count,
                                  std::size_t fault_count,
                                  const ShardSpec& spec) {
  const auto [begin, end] = ShardCellRange(config_count, fault_count, spec);
  std::vector<ShardUnit> units;
  for (std::size_t cell = begin; cell < end;) {
    const std::size_t config = cell / fault_count;
    const std::size_t config_end = (config + 1) * fault_count;
    ShardUnit unit;
    unit.config = config;
    unit.fault_begin = cell % fault_count;
    unit.fault_end = std::min(end, config_end) - config * fault_count;
    units.push_back(unit);
    cell = std::min(end, config_end);
  }
  return units;
}

std::string Fnv1a64Hex(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

namespace {

void AppendExact(std::string& blob, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  blob += buf;
}

}  // namespace

std::string CampaignContentHash(const DftCircuit& circuit,
                                const std::vector<faults::Fault>& fault_list,
                                const std::vector<ConfigVector>& configs,
                                const CampaignOptions& options) {
  DftCircuit clone = circuit.Clone();
  ScopedConfiguration functional(
      clone, ConfigVector(clone.ConfigurableOpamps().size()));
  std::string blob = spice::WriteDeck(clone.Circuit());
  blob += "|output=" + circuit.OutputNode();
  for (const auto& f : fault_list) {
    blob += "|fault=" + f.Device() + ":";
    blob += faults::FaultKindName(f.Kind());
    blob += ":";
    AppendExact(blob, f.Magnitude());
  }
  for (const auto& cv : configs) blob += "|cv=" + cv.BitString();
  // Every option that can change campaign numbers.  Thread count and the
  // shared factor cache are deliberately absent: results are invariant to
  // both (see DESIGN.md "Threading & determinism").
  blob += "|eps=";
  AppendExact(blob, options.criteria.epsilon);
  blob += "|floor=";
  AppendExact(blob, options.criteria.relative_floor);
  for (const double e : options.criteria.envelope) {
    blob += "|env=";
    AppendExact(blob, e);
  }
  if (options.tolerance) {
    blob += "|tol=";
    AppendExact(blob, options.tolerance->component_tolerance);
    blob += "|samples=" + std::to_string(options.tolerance->samples);
    blob += "|seed=" + std::to_string(options.tolerance->seed);
  }
  blob += "|below=";
  AppendExact(blob, options.decades_below);
  blob += "|above=";
  AppendExact(blob, options.decades_above);
  blob += "|ppd=" + std::to_string(options.points_per_decade);
  if (options.anchor_hz) {
    blob += "|anchor=";
    AppendExact(blob, *options.anchor_hz);
  }
  // Constants: the solver-backend fields these spelled (automatic backend,
  // dense switch-over at 64 unknowns) are gone, and every campaign ran at
  // those defaults, so checkpoints and cache records keep their hash.
  blob += "|backend=0|dense=64";
  if (options.analysis != CampaignAnalysis::kTransient) {
    // AC campaigns run one fault path (frequency-major SMW).  This constant
    // is what the default path has always folded in here, so AC
    // checkpoints and cache records written before that path became the
    // only one keep their hash and stay valid.
    blob += "|lowrank=1|batch=1";
    // Sensitivity screen: detectability verdicts are bit-identical either
    // way, but a skipped cell stores its first-order deviation value, so
    // screened and unscreened checkpoints must never merge.  Appended only
    // when the screen is on, so unscreened runs — and every pre-screen
    // checkpoint — keep their hash byte for byte.  The margin is the
    // constant faults::kScreenMargin and rides along as it always has.
    if (spice::SensitivityScreenEnabled(options.mna)) {
      blob += "|screen=1|margin=";
      AppendExact(blob, faults::kScreenMargin);
    }
    // Tolerance envelopes come from the shared pass over the functional
    // configuration (PrepareCampaignCriteria), whose last bits differ from
    // a per-configuration sweep's: checkpoints and cache records whose
    // envelopes were swept per configuration must not resume or hit.
    // Campaigns without an envelope keep their hash.
    if (options.tolerance) blob += "|envelope=shared";
  } else {
    // Transient campaign fields are appended only when the analysis is
    // transient, so every AC campaign (and every existing checkpoint)
    // keeps its pre-transient hash byte for byte.
    blob += "|analysis=transient";
    blob += "|tend=";
    AppendExact(blob, options.transient_t_end_s);
    blob += "|steps=" + std::to_string(options.transient_steps);
  }
  return Fnv1a64Hex(blob);
}

namespace {

/// Index of `unit` in this shard's unit list, or nullopt.
std::optional<std::size_t> SlotOf(const std::vector<ShardUnit>& units,
                                  const ShardUnit& unit) {
  for (std::size_t k = 0; k < units.size(); ++k) {
    if (units[k] == unit) return k;
  }
  return std::nullopt;
}

}  // namespace

ShardRunResult RunCampaignShard(const DftCircuit& circuit,
                                const std::vector<faults::Fault>& fault_list,
                                const std::vector<ConfigVector>& configs,
                                const CampaignOptions& options,
                                const ShardRunOptions& shard_options) {
  const ShardSpec spec = shard_options.shard;
  spec.Validate();
  if (configs.empty()) {
    throw util::AnalysisError("campaign needs at least one configuration");
  }
  if (shard_options.checkpoint_dir.empty()) {
    throw util::AnalysisError("shard run needs a checkpoint directory");
  }
  metrics::GetCounter("core.shard.runs").Add();
  util::trace::Span run_span("shard.run");

  DftCircuit work = circuit.Clone();
  const CampaignFrame frame = BuildCampaignFrame(work, fault_list, options);

  ShardManifest manifest;
  manifest.shard = spec;
  manifest.circuit = circuit.Name();
  manifest.content_hash =
      CampaignContentHash(circuit, fault_list, configs, options);
  for (const auto& cv : configs) manifest.config_bits.push_back(cv.BitString());
  manifest.fault_list = fault_list;
  manifest.band_f_lo = frame.band.FLow();
  manifest.band_f_hi = frame.band.FHigh();
  manifest.band_points_per_decade = frame.band.PointsPerDecade();
  manifest.probe_label = frame.probe.label;
  if (frame.transient) {
    manifest.analysis = std::string(CampaignAnalysisName(options.analysis));
    manifest.transient_t_end_s = frame.transient->t_end_s;  // resolved window
    manifest.transient_steps = frame.transient->steps;
  }

  const std::vector<ShardUnit> units =
      ShardUnits(configs.size(), fault_list.size(), spec);
  metrics::GetCounter("core.shard.units").Add(units.size());

  std::filesystem::create_directories(shard_options.checkpoint_dir);
  const std::string path =
      (std::filesystem::path(shard_options.checkpoint_dir) /
       ShardFileName(spec))
          .string();

  ShardRunResult result;
  result.shard_path = path;
  result.units_total = units.size();

  // Resume: a valid checkpoint for the same inputs restores its completed
  // units; anything suspicious aborts loudly instead of merging bad data.
  // Damaged unit records are the exception: the per-unit CRCs localize the
  // damage, so the salvaging loader keeps the intact units and this run
  // simply recomputes the dropped ones.
  std::vector<std::optional<ShardUnitResult>> slots(units.size());
  // Each completed unit's record line, sealed once (empty = not yet run):
  // every checkpoint write is the header plus these lines.
  std::vector<std::string> lines(units.size());
  if (std::filesystem::exists(path)) {
    util::trace::Span load_span("checkpoint.load");
    metrics::GetCounter("core.checkpoint.loads").Add();
    ShardSalvage salvage;
    ShardDocument existing = SalvageShardFile(path, salvage);
    result.salvage_diagnostics = std::move(salvage.damaged);
    if (existing.manifest.shard != spec) {
      throw CheckpointError("'" + path + "' belongs to shard " +
                            existing.manifest.shard.Name() +
                            ", this run is shard " + spec.Name());
    }
    if (!existing.manifest.SameCampaign(manifest)) {
      throw CheckpointError(
          "'" + path + "' was written for different campaign inputs (stale " +
          "content hash " + existing.manifest.content_hash + ", expected " +
          manifest.content_hash +
          "): circuit, fault list or options changed; delete the checkpoint "
          "directory to start over");
    }
    for (ShardUnitResult& u : existing.units) {
      const auto slot = SlotOf(units, u.unit);
      if (!slot) {
        throw CheckpointError("'" + path + "' contains unit (config " +
                              std::to_string(u.unit.config) +
                              ") that shard " + spec.Name() + " does not own");
      }
      lines[*slot] = ShardUnitLine(u);
      slots[*slot] = std::move(u);
      ++result.units_resumed;
    }
    metrics::GetCounter("core.checkpoint.resume_hits")
        .Add(result.units_resumed);
  }

  const std::string header = ShardHeaderLine(manifest);
  const auto write_checkpoint = [&] {
    util::trace::Span write_span("checkpoint.write");
    // A failed write is tolerated: the atomic protocol leaves the previous
    // checkpoint (and no tmp litter) behind, so the only cost is that a
    // later resume recomputes more units.  Simulation results never abort
    // over checkpoint I/O.
    try {
      WriteShardText(ShardToText(header, lines), path);
      metrics::GetCounter("core.checkpoint.writes").Add();
    } catch (const util::Error& e) {
      ++result.checkpoint_write_failures;
      result.last_write_error = e.what();
      metrics::GetCounter("core.checkpoint.write_failures").Add();
    }
  };
  // Persist the manifest immediately: a run killed before its first unit
  // still leaves a resumable (empty) checkpoint behind.
  write_checkpoint();

  // The units this run computes, in order, and their criteria from one
  // shared envelope pass over just their configurations (a configuration's
  // criteria do not depend on which others share the pass), then the
  // campaign's shared stamp deltas — none of it when every unit was
  // resumed from the checkpoint.  A cancel
  // during the pass or at a unit boundary (inside RunCampaignUnit) loses
  // at most the work in flight: every completed unit is already durably
  // checkpointed, so a later run resumes cleanly.
  std::vector<std::size_t> todo;
  for (std::size_t k = 0; k < units.size(); ++k) {
    if (slots[k]) continue;
    if (todo.size() >= shard_options.max_new_units) break;
    todo.push_back(k);
  }
  std::vector<std::optional<testability::DetectionCriteria>> criteria;
  std::optional<faults::FaultDeltaTable> deltas;
  if (!todo.empty()) {
    std::vector<ConfigVector> todo_configs;
    todo_configs.reserve(todo.size());
    for (const std::size_t k : todo) {
      todo_configs.push_back(configs[units[k].config]);
    }
    {
      util::trace::Span span("campaign.prepare");
      criteria = PrepareCampaignCriteria(work, frame, todo_configs, options);
    }
    deltas = BuildSharedFaultDeltas(work, frame, fault_list, options);
  }
  for (std::size_t t = 0; t < todo.size(); ++t) {
    const std::size_t k = todo[t];
    const ShardUnit& unit = units[k];
    slots[k] = ShardUnitResult{
        unit, RunCampaignUnit(work, frame, configs[unit.config],
                              std::move(criteria[t]),
                              fault_list, unit.fault_begin, unit.fault_end,
                              options, deltas ? &*deltas : nullptr)};
    lines[k] = ShardUnitLine(*slots[k]);
    ++result.units_run;
    metrics::GetCounter("core.shard.units_run").Add();
    write_checkpoint();
  }

  result.complete = std::all_of(slots.begin(), slots.end(),
                                [](const auto& s) { return s.has_value(); });
  for (const auto& slot : slots) {
    if (slot) result.quarantined_cells += slot->partial.QuarantinedCellCount();
  }
  return result;
}

MergedCampaign MergeShards(const std::vector<std::string>& shard_paths) {
  if (shard_paths.empty()) {
    throw CheckpointError("no shard files to merge");
  }
  util::trace::Span merge_span("shard.merge");
  metrics::GetCounter("core.shard.merges").Add();
  metrics::GetCounter("core.shard.merged_files").Add(shard_paths.size());

  std::vector<std::pair<std::string, ShardDocument>> docs;
  docs.reserve(shard_paths.size());
  {
    util::trace::Span load_span("checkpoint.load");
    for (const std::string& path : shard_paths) {
      metrics::GetCounter("core.checkpoint.loads").Add();
      docs.emplace_back(path, LoadShardFile(path));
    }
  }
  std::sort(docs.begin(), docs.end(), [](const auto& a, const auto& b) {
    return a.second.manifest.shard.index < b.second.manifest.shard.index;
  });

  const ShardManifest& ref = docs.front().second.manifest;
  for (const auto& [path, doc] : docs) {
    if (!doc.manifest.SameCampaign(ref)) {
      throw CheckpointError(
          "'" + path + "' does not belong to the same campaign as '" +
          docs.front().first + "' (content hash " + doc.manifest.content_hash +
          " vs " + ref.content_hash + ")");
    }
  }

  const std::size_t config_count = ref.config_bits.size();
  const std::size_t fault_count = ref.fault_list.size();

  // Coverage: every cell of the work matrix exactly once.
  std::vector<std::vector<const ShardUnitResult*>> by_config(config_count);
  std::vector<std::vector<bool>> covered(config_count,
                                         std::vector<bool>(fault_count, false));
  for (const auto& [path, doc] : docs) {
    for (const ShardUnitResult& u : doc.units) {
      for (std::size_t j = u.unit.fault_begin; j < u.unit.fault_end; ++j) {
        if (covered[u.unit.config][j]) {
          throw CheckpointError("overlapping coverage: cell (config " +
                                std::to_string(u.unit.config) + ", fault " +
                                std::to_string(j) +
                                ") appears twice (second time in '" + path +
                                "')");
        }
        covered[u.unit.config][j] = true;
      }
      by_config[u.unit.config].push_back(&u);
    }
  }
  std::size_t missing = 0;
  std::string first_gap;
  for (std::size_t c = 0; c < config_count; ++c) {
    for (std::size_t j = 0; j < fault_count; ++j) {
      if (!covered[c][j]) {
        if (missing == 0) {
          first_gap = "(config " + std::to_string(c) + ", fault " +
                      std::to_string(j) + ")";
        }
        ++missing;
      }
    }
  }
  if (missing > 0) {
    throw CheckpointError(
        "coverage gap: " + std::to_string(missing) + " of " +
        std::to_string(config_count * fault_count) +
        " cells missing, first at " + first_gap +
        " — are all shards present and complete?");
  }

  // Stitch rows in campaign order.
  util::trace::Span stitch_span("shard.stitch");
  std::vector<ConfigResult> per_config;
  per_config.reserve(config_count);
  for (std::size_t c = 0; c < config_count; ++c) {
    std::vector<const ShardUnitResult*>& parts = by_config[c];
    std::sort(parts.begin(), parts.end(),
              [](const ShardUnitResult* a, const ShardUnitResult* b) {
                return a->unit.fault_begin < b->unit.fault_begin;
              });
    const ConfigResult& first = parts.front()->partial;
    ConfigResult row{first.config, {}, first.nominal, first.threshold};
    row.relative_floor = first.relative_floor;
    row.faults.reserve(fault_count);
    for (const ShardUnitResult* part : parts) {
      const ConfigResult& p = part->partial;
      if (p.nominal.values != row.nominal.values ||
          p.nominal.label != row.nominal.label ||
          p.nominal.quarantined != row.nominal.quarantined ||
          p.threshold != row.threshold ||
          p.relative_floor != row.relative_floor) {
        throw CheckpointError(
            "shards disagree on the nominal response/threshold of config " +
            std::to_string(c) +
            " — checkpoints from different builds or inputs?");
      }
      for (const auto& fd : p.faults) row.faults.push_back(fd);
    }
    per_config.push_back(std::move(row));
  }

  return MergedCampaign{
      CampaignResult(ref.fault_list, std::move(per_config), ref.Band()),
      ref.circuit, docs.size()};
}

}  // namespace mcdft::core
