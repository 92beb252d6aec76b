// Receipt audit engine: cross-checks every proof-of-coverage claim before it
// touches the ledger, and attributes rejections to the submitting party.
//
// Two lines of defence, layered:
//   * The authoritative check is core::ProofOfCoverage::verify — keyed
//     digest and exact orbital geometry — and the credit goes through
//     ProofOfCoverage::credit and the ledger's content-hash duplicate guard:
//     the two steps of verify_and_reward, so honest traffic is bit-identical
//     to the unaudited campaign.
//   * Whenever an audit grid is set, a prescreen re-derives the claimed
//     contact from the shared ephemeris kernel: one visibility bit at the
//     claimed audit-grid step (ProofOfCoverage::overhead_at_step, read off
//     the epoch tables when the grid is prepared), and flags receipts whose
//     bit is clear. The prescreen is analytics-only — a grid step can
//     disagree with exact geometry right at the mask boundary, so it never
//     overrides the verdict; it feeds the fraud telemetry and lets
//     operators see forgery pressure before verdicts accumulate.
//
// The auditor also checks settlement-time SLA claims (served seconds a party
// reports about itself) against the scheduler's ground truth, flagging
// overclaims beyond a configured tolerance.
//
// Per-party cumulative statistics are the fraud evidence the
// QuarantineManager escalates on.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/ledger.hpp"
#include "core/party.hpp"
#include "core/proof_of_coverage.hpp"
#include "obs/metrics.hpp"
#include "orbit/time.hpp"
#include "rf/doppler.hpp"

namespace mpleo::adversary {

struct AuditConfig {
  // Fractional SLA overclaim tolerated before a claim counts as a
  // misreport: claimed > measured * (1 + tolerance) flags. Must be a
  // finite value >= 0.
  double sla_tolerance = 0.05;
  // Doppler-track fit stage (off by default — the audit path is then
  // bit-identical to the pre-RF auditor). When enabled, a geometrically
  // valid claim must also carry a measured Doppler track whose shape matches
  // the shared-ephemeris prediction within rms_tolerance_hz.
  rf::DopplerAuditConfig doppler;
};

// Who put the receipt on the table. A verifier-issued challenge answered at
// an unlucky time fails geometry without any dishonesty — the verifier
// mistimed the ping. An unsolicited submission claiming a contact geometry
// says never happened IS the forgery the audit exists to catch. Digest and
// duplicate rejections are fraud under either provenance (wrong key /
// double-spend attempt).
enum class ReceiptProvenance : std::uint8_t {
  kChallenge,   // verifier-initiated spot check
  kSubmission,  // party-initiated coverage claim
};

struct PartyAuditStats {
  std::uint64_t submitted = 0;
  std::uint64_t credited = 0;
  std::uint64_t rejected_digest = 0;
  std::uint64_t rejected_geometry = 0;  // all kNotOverhead, either provenance
  std::uint64_t unsolicited_geometry = 0;  // kNotOverhead on a kSubmission
  std::uint64_t rejected_duplicate = 0;
  std::uint64_t rejected_unknown = 0;   // unknown satellite or verifier
  std::uint64_t sla_misreports = 0;
  // RF evidence: receipts whose Doppler track reached a conclusive fit, the
  // subset the fit rejected, and spectrum-plan violations the interference
  // accounting attributed to this party.
  std::uint64_t doppler_checked = 0;
  std::uint64_t rf_doppler_rejections = 0;
  std::uint64_t rf_interference_violations = 0;
  // Prescreen telemetry (never part of the verdict).
  std::uint64_t prescreen_flagged = 0;
  std::uint64_t prescreen_mismatches = 0;  // mask and exact geometry disagreed

  // Confirmed fraud evidence: bad digests, double submissions, unsolicited
  // claims with impossible geometry, SLA overclaims, RF-implausible Doppler
  // tracks, and attributed spectrum-plan violations. Challenge-provenance
  // geometry misses and unknown-id rejections are excluded — a mistimed
  // ping or a receipt for a withdrawn satellite is stale or unlucky, not
  // dishonest.
  [[nodiscard]] std::uint64_t fraud_total() const noexcept {
    return rejected_digest + unsolicited_geometry + rejected_duplicate +
           sla_misreports + rf_doppler_rejections + rf_interference_violations;
  }

  friend bool operator==(const PartyAuditStats&, const PartyAuditStats&) = default;
};

class ReceiptAuditor {
 public:
  // `metrics` may be null (all instrumentation becomes no-ops). Throws
  // core::ValidationError on a negative or non-finite sla_tolerance, and
  // std::invalid_argument (every issue joined) on an invalid doppler config.
  ReceiptAuditor(AuditConfig config, std::size_t party_count,
                 obs::MetricsRegistry* metrics = nullptr);

  // Sets the grid the prescreen re-derives contacts on (the current epoch's
  // scheduling grid; ProofOfCoverage::prepare_grid on the same grid makes
  // each prescreen one table read). Without a grid the prescreen is skipped.
  void set_audit_grid(orbit::TimeGrid grid) { grid_ = grid; }

  // Re-points instrumentation (e.g. at the RunContext registry of the epoch
  // being run). Null detaches it.
  void set_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
    instruments_ = {};
  }

  // Audits one receipt and, when valid, credits it through poc.verify and
  // poc.credit — same verdict, same ledger entry, same duplicate guard as
  // the unaudited verify_and_reward path; one verify serves the Doppler
  // stage and the credit. The verdict is attributed to
  // `owner_party`'s cumulative stats under the given provenance (see
  // ReceiptProvenance for what counts as fraud).
  //
  // When the Doppler stage is enabled, `doppler` is the measured track
  // accompanying the claim (evidence alongside the receipt — the receipt
  // struct and its content hash never change). A geometrically valid claim
  // whose track misses the ephemeris prediction — or that brings no track
  // where the geometry says at least min_track_samples were measurable —
  // verdicts kRfImplausible and is never credited. Windows too short to pin
  // a curve shape are inconclusive and fall through to the geometric path.
  core::ReceiptVerdict audit_and_credit(
      const core::ProofOfCoverage& poc, const core::CoverageReceipt& receipt,
      core::PartyId owner_party, core::Ledger& ledger, core::AccountId owner_account,
      ReceiptProvenance provenance = ReceiptProvenance::kChallenge,
      const rf::DopplerObservation* doppler = nullptr);

  // Settlement-time SLA cross-check: true (and recorded as a misreport) when
  // `claimed_seconds` exceeds `measured_seconds` beyond the configured
  // tolerance. The measured value is the scheduler's ground truth.
  bool audit_sla_claim(core::PartyId party, double claimed_seconds,
                       double measured_seconds);

  // Records spectrum-plan violations the scheduler's interference accounting
  // attributed to `party` (see rf::RfLinkStats::violation_inr_by_party):
  // `events` incidents carrying `total_inr` linear interference-to-noise.
  // Counts straight into the party's fraud evidence.
  void record_interference_violations(core::PartyId party, std::uint64_t events,
                                      double total_inr);

  [[nodiscard]] const PartyAuditStats& stats(core::PartyId party) const;
  [[nodiscard]] const std::vector<PartyAuditStats>& all_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] PartyAuditStats totals() const;
  [[nodiscard]] const AuditConfig& config() const noexcept { return config_; }

 private:
  // Handles into metrics_, each registered on its first use (so a snapshot
  // names exactly the metrics a run touched) and kept until set_metrics.
  struct Instruments {
    obs::Counter receipts_submitted;
    obs::Counter receipts_credited;
    obs::Counter fraud_detected;
    obs::Counter rf_doppler_rejections;
    obs::Counter challenge_geometry_misses;
    obs::Counter receipts_unknown;
    obs::Counter prescreen_flagged;
    obs::Counter sla_misreports;
    obs::Counter rf_interference_violations;
    obs::Histogram doppler_rms_hz;
    obs::Histogram rf_violation_inr;
  };

  // Adds `delta` to the counter `name` through `handle`, registering it
  // first if needed. Requires metrics_.
  void count(obs::Counter& handle, std::string_view name, std::uint64_t delta = 1);
  void observe(obs::Histogram& handle, std::string_view name, double value);

  AuditConfig config_;
  std::vector<double> doppler_offsets_;  // config_.doppler.sample_offsets_s()
  std::vector<PartyAuditStats> stats_;
  std::optional<orbit::TimeGrid> grid_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments instruments_;
};

}  // namespace mpleo::adversary
