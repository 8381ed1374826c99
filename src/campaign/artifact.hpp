// artifact.hpp — the campaign's shared result schema (ROADMAP item 4).
//
// One CellArtifact is one fully-run (or pre-screen-skipped) grid cell of
// a scenario campaign: its axis coordinates, the multi-seed robustness
// summary (final accuracy / loss, as in the paper's tables), and the
// *measured* privacy leakage of the trained model — membership-inference
// AUC and gradient-inversion error — so the DP-vs-robustness trade-off
// the paper tabulates by accounting is extended with empirical attack
// outcomes over the same grid.
//
// The schema is shared by three producers/consumers:
//   - campaign/runner.cpp writes campaign.csv / campaign.json from it,
//   - campaign/checkpoint.cpp persists completed cells in the resumable
//     manifest using the exact same row encoding,
//   - examples/attack_playground.cpp emits its comparison table in the
//     same column layout so scripts/check_campaign_artifacts.py can
//     validate either source.
//
// Byte-determinism contract: format_metric renders every double as the
// *shortest* decimal string that strtod round-trips to the identical
// bits ("%.17g" fallback), so write -> read -> write is byte-stable and
// a killed-and-resumed campaign reproduces its artifacts byte-for-byte
// (tests/test_campaign.cpp pins this).  No field may contain a comma or
// a newline; sanitize_field enforces that for free-text (skip reasons).
#pragma once

#include <span>
#include <string>
#include <vector>

namespace dpbyz::campaign {

/// One grid cell's coordinates + results.  Metrics are NaN ("nan" on the
/// wire) for skipped cells and for metrics a cell does not produce.
struct CellArtifact {
  // --- identity (grid coordinates) ---------------------------------------
  size_t cell = 0;          ///< index in grid-expansion order (stable key)
  std::string id;           ///< human-readable cell label (no commas)
  std::string gar;
  std::string attack;       ///< "none" or "name[:nu]" as specified on the axis
  double eps = 0.0;         ///< per-step DP epsilon; 0 = DP disabled
  std::string participation;
  std::string topology;     ///< "flat" | "tree:LxB"
  std::string channel = "off";  ///< "off" | "lossy:<drop>x<corrupt>x<reorder>"
  std::string churn = "off";    ///< "off" | "epoch:<E>x<join>x<leave>"
  std::string prune;
  int fast_math = 0;
  size_t seeds = 0;         ///< seeded repetitions aggregated below

  // --- status ------------------------------------------------------------
  /// Empty = the cell ran.  Non-empty = skipped (inadmissible axis combo,
  /// pre-screened) or failed at runtime ("error: ..."); metrics are NaN.
  std::string skip_reason;

  // --- robustness metrics (mean/stddev over seeds) ------------------------
  double final_acc_mean = 0.0, final_acc_std = 0.0;
  double final_loss_mean = 0.0, final_loss_std = 0.0;
  double min_loss_mean = 0.0;  ///< mean of per-run minimum training loss

  // --- measured privacy leakage (seed-1 final model) ----------------------
  double mi_auc = 0.0;         ///< membership-inference ROC AUC (0.5 = no leak)
  double inv_rel_error = 0.0;  ///< gradient-inversion mean relative L2 error
  double inv_label_acc = 0.0;  ///< gradient-inversion label accuracy

  friend bool operator==(const CellArtifact&, const CellArtifact&) = default;
};

/// Shortest decimal string that parses back to exactly `v` (bit-level
/// round trip); NaN renders as "nan", infinities as "inf"/"-inf".
std::string format_metric(double v);

/// Inverse of format_metric (strtod plus the nan/inf spellings).
double parse_metric(const std::string& s);

/// A count field of a grid axis value: the whole of `s` must be decimal
/// digits that fit a size_t, else std::invalid_argument
/// "campaign: malformed <what> '<s>'".
size_t parse_size(const std::string& s, const std::string& what);

/// Replace CSV/JSON-hostile characters (',', '\n', '\r', '"', '\\') with
/// ';' so free-text fields (skip reasons) cannot break the row format.
std::string sanitize_field(std::string s);

/// The canonical column set, in order.
const std::vector<std::string>& csv_header();

/// Encode/decode one artifact as CSV cells (csv_header arity/order).
/// from_csv_cells throws std::invalid_argument on arity mismatch or an
/// unparsable numeric field.
std::vector<std::string> csv_cells(const CellArtifact& a);
CellArtifact from_csv_cells(const std::vector<std::string>& cells);

/// Write/read the campaign CSV (header + one row per artifact).
void write_csv(const std::string& path, std::span<const CellArtifact> cells);
std::vector<CellArtifact> read_csv(const std::string& path);

/// Write the JSON artifact: {"campaign": 1, "signature": ..., "cells":
/// [...]}, one object per artifact with the csv_header field names.
/// Byte-deterministic for the same inputs (fixed key order, canonical
/// number formatting).
void write_json(const std::string& path, const std::string& signature,
                std::span<const CellArtifact> cells);

}  // namespace dpbyz::campaign
