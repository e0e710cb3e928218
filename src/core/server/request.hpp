// Campaign request schema of the mcdftd NDJSON protocol.
//
// A submit request names a zoo circuit (or carries raw deck text) plus the
// campaign knobs the `mcdft analyze` CLI exposes; BuildCampaignJob turns it
// into the exact inputs RunCampaign takes.  The CLI's campaign subcommands
// fill a CampaignRequest from their flags and call BuildCampaignJob too, so
// a daemon submit and a local `mcdft analyze` of the same knobs produce
// identical campaigns — and therefore identical content hashes and
// identical report bytes.
//
// `extra_faults` appends faults beyond the generated deviation list (the
// test hook for quarantine propagation: a deviation fault whose magnitude
// overflows the faulty value engages the retry ladder end-to-end).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/dft_transform.hpp"
#include "util/json.hpp"

namespace mcdft::core::server {

/// One appended fault: kind is "up", "down", "open" or "short"
/// (magnitude is ignored for the catastrophic kinds).
struct ExtraFault {
  std::string device;
  std::string kind = "up";
  double magnitude = 0.2;
};

/// A parsed submit request.  Its defaults are the CLI defaults: `mcdft
/// analyze` fills one from its flags.
struct CampaignRequest {
  std::string circuit = "biquad";  ///< zoo name (ignored when deck set)
  std::string deck;                ///< raw SPICE deck text; "" = use zoo
  double eps = 0.08;
  double tol = 0.03;               ///< 0 disables the tolerance envelope
  int samples = 48;
  int ppd = 50;
  int max_followers = -1;          ///< -1 = the default k (see below)

  /// Adjoint sensitivity screen (MnaOptions::sensitivity_screen).  Omitted
  /// from the wire when true so existing requests keep their bytes.
  bool screen = true;

  int threads = 0;                 ///< campaign worker threads (0 = auto)
  int priority = 0;                ///< higher runs earlier

  /// Campaign analysis: "ac" (default) or "transient".  Mirrors the CLI's
  /// `--analysis` flag; omitted from the wire format when "ac" so existing
  /// clients' requests keep their content hash.
  std::string analysis = "ac";

  /// Fault universe: "" = analysis default (deviation faults for AC,
  /// catastrophic opens+shorts for transient), or an explicit "deviation",
  /// "catastrophic" or "both".
  std::string fault_universe;

  double transient_t_end = 0.0;    ///< seconds; 0 = auto (8 / band centre)
  int transient_steps = 0;         ///< 0 = the campaign default (256)

  std::vector<ExtraFault> extra_faults;

  /// End-to-end compute budget in milliseconds; 0 = no deadline.  The
  /// daemon arms the job's CancelToken with it, so an expired request
  /// stops within one campaign unit.  Omitted from the wire at 0 so
  /// existing requests keep their bytes (and content-hash keys) — the
  /// deadline truncates work, it never changes completed results.
  std::int64_t deadline_ms = 0;

  /// Client-chosen request id for the `cancel` verb; "" = daemon assigns
  /// one.  Omitted from the wire when empty; never part of the cache key.
  std::string request_id;
};

/// Parse a submit request object.  Throws util::Error (with a message
/// naming the field) on malformed input.  Unknown fields are ignored, so
/// older clients that still send retired knobs (`lowrank`, `batch`,
/// `screen_margin`) keep working.
CampaignRequest RequestFromJson(const util::json::Value& v);

/// Serialize (the client side of the protocol).
util::json::Value RequestToJson(const CampaignRequest& request);

/// Everything RunCampaign needs, plus the request's content-hash key.
struct CampaignJob {
  DftCircuit circuit;
  std::vector<faults::Fault> fault_list;
  std::vector<ConfigVector> configs;
  CampaignOptions options;
  std::string circuit_name;
  std::string key;  ///< CampaignContentHash of the inputs above
};

/// Build the campaign inputs for `request` — the one place the CLI, the
/// daemon and the benchmark turn knobs into a campaign: the analysis's
/// fault universe, up-to-k-followers configs minus transparent (k defaults
/// to the opamp count, capped at 2 above five opamps), paper campaign
/// options with the request's knobs.  Throws util::Error naming the field
/// on an out-of-range knob (ppd < 1, eps not finite, tol negative or not
/// finite, samples < 1 with tol > 0, max_followers < -1, transient_steps
/// < 0, transient_t_end negative or not finite), and on an unknown
/// circuit, unparsable deck, or bad extra fault.
CampaignJob BuildCampaignJob(const CampaignRequest& request);

}  // namespace mcdft::core::server
