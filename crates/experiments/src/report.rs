//! Plain-text rendering of every experiment result, in the paper's layout.
//!
//! The `repro` binary prints these renderings, and `tests/golden/` pins every
//! untimed one byte for byte: `<name>_small_seed42.txt` is
//! `repro <name> --scale small --seed 42`.

use crate::availability::{AvailabilityResult, Table3Row};
use crate::coding::{RsSweep, Table2};
use crate::multicast_fig::{RanSubSweep, SpreadResult};
use crate::placement_sweep::PlacementSweep;
use crate::repair_sweep::RepairSweep;
use crate::storesim::StoreComparison;
use peerstripe_gridsim::Table4Row;
use peerstripe_sim::stats::Figure;
use peerstripe_sim::TableBuilder;
use std::fmt::Write as _;

/// Render a figure: the headline (final/extreme values per series) plus the CSV
/// of the full curves.
pub fn render_figure(fig: &Figure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", fig.title);
    for s in &fig.series {
        if let Some(y) = s.last_y() {
            let _ = writeln!(out, "  {:<22} final {} = {:.2}", s.name, fig.y_label, y);
        }
    }
    let _ = writeln!(out, "--- curve data (CSV) ---");
    out.push_str(&fig.to_csv());
    out
}

/// The line `repro all` prints ahead of Figures 7–9 and Table 1: the load the
/// store comparison offered.
pub fn render_insertion_load(cmp: &StoreComparison) -> String {
    format!(
        "Inserted {} files ({}) into {} of contributed capacity (offered load {:.1}%)\n\n",
        cmp.files_offered,
        cmp.bytes_offered,
        cmp.capacity,
        100.0 * cmp.bytes_offered.as_u64() as f64 / cmp.capacity.as_u64() as f64,
    )
}

/// Render Table 1.
pub fn render_table1(cmp: &StoreComparison) -> String {
    let t1 = cmp.table1();
    let mut t = TableBuilder::new(
        "Table 1: number and size of chunks created",
        &[
            "Scheme",
            "Chunks (avg)",
            "Chunks (sd)",
            "Size (avg)",
            "Size (sd)",
        ],
    );
    for (scheme, c_mean, c_sd, s_mean, s_sd) in &t1.rows {
        t.row(&[
            scheme.clone(),
            format!("{c_mean:.2}"),
            format!("{c_sd:.2}"),
            format!("{s_mean}"),
            format!("{s_sd}"),
        ]);
    }
    t.render()
}

/// Render Table 2.
pub fn render_table2(t2: &Table2) -> String {
    let mut t = TableBuilder::new(
        format!(
            "Table 2: encoding cost for a {} chunk ({} blocks; ReedSolomon row at its \
             GF(256) cap, RS({}, {}))",
            t2.chunk_size,
            t2.blocks,
            t2.rs_data,
            t2.rs_data + t2.rs_parity
        ),
        &[
            "Erasure code",
            "Encoded size",
            "Size ovrhd.",
            "Encode (ms)",
            "Encode ovrhd.",
            "Decode (ms)",
            "Min-decode (ms)",
            "Min-subset ok",
        ],
    );
    for row in &t2.rows {
        let encode_overhead = t2
            .rows
            .first()
            .map_or(0.0, |null| row.time_overhead_pct(null));
        t.row(&[
            row.name.to_string(),
            format!("{}", row.encoded_size),
            format!("{:.0}%", row.size_overhead_pct()),
            format!("{:.1}", row.encode_ms),
            format!("{encode_overhead:.0}%"),
            format!("{:.1}", row.decode_ms),
            format!("{:.1}", row.decode_min_ms),
            format!("{:.0}%", row.min_subset_recovery_pct()),
        ]);
    }
    t.render()
}

/// Render the Reed–Solomon (data, parity) sweep.
pub fn render_rs_sweep(sweep: &RsSweep) -> String {
    let mut t = TableBuilder::new(
        "ReedSolomon sweep: encode, decode, minimal-subset decode and recovery",
        &[
            "RS(n, m)",
            "Chunk",
            "Encode (MB/s)",
            "Decode (MB/s)",
            "Min-decode (MB/s)",
            "Recovery",
        ],
    );
    for row in &sweep.rows {
        let cost = &row.cost;
        let mb = cost.chunk_size.as_u64() as f64 / (1 << 20) as f64;
        let mb_s = |ms: f64| format!("{:.0}", mb / (ms / 1e3).max(1e-9));
        t.row(&[
            format!("RS({}, {})", row.data, row.data + row.parity),
            format!("{}", cost.chunk_size),
            mb_s(cost.encode_ms),
            mb_s(cost.decode_ms),
            mb_s(cost.decode_min_ms),
            format!("{:.0}%", cost.min_subset_recovery_pct()),
        ]);
    }
    t.render()
}

/// Render Figure 10.
pub fn render_figure10(result: &AvailabilityResult) -> String {
    render_figure(&result.figure10())
}

/// Render Table 3.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut t = TableBuilder::new(
        "Table 3: data lost and regenerated after failing 10% / 20% of the nodes",
        &[
            "Nodes failed",
            "Data lost",
            "Data regenerated",
            "Regen/failure (avg)",
            "Regen/failure (sd)",
            "Total data",
        ],
    );
    for row in rows {
        t.row(&[
            format!(
                "{:.0}% ({} nodes)",
                row.failed_fraction * 100.0,
                row.nodes_failed
            ),
            format!("{}", row.data_lost),
            format!("{}", row.data_regenerated),
            format!("{}", row.regen_per_failure_mean),
            format!("{}", row.regen_per_failure_sd),
            format!("{}", row.total_data),
        ]);
    }
    t.render()
}

/// Render the continuous-churn repair-policy sweep.
pub fn render_repair_sweep(sweep: &RepairSweep) -> String {
    let mut t = TableBuilder::new(
        format!(
            "Repair sweep: {} nodes, {} files ({}), {:.0} h of churn per configuration",
            sweep.nodes, sweep.files_total, sweep.useful_bytes, sweep.sim_hours
        ),
        &[
            "Policy",
            "Timeout",
            "Node bw",
            "Lost files",
            "Avail (mean)",
            "Avail (min)",
            "Repair traffic",
            "Repair/useful",
            "False decl.",
            "Node deaths",
            "Events",
        ],
    );
    for row in &sweep.rows {
        t.row(&[
            row.policy.label(),
            format!("{:.0}h", row.timeout_hours),
            format!("{}/s", row.bandwidth),
            format!("{}", row.report.files_lost),
            format!("{:.1}%", row.report.availability_mean_pct),
            format!("{:.1}%", row.report.availability_min_pct),
            format!("{}", row.report.repair_bytes),
            format!("{:.4}", row.report.repair_per_useful_byte),
            format!("{}", row.report.false_declarations),
            format!("{}", row.report.permanent_failures),
            format!("{}", row.report.events),
        ]);
    }
    let mut out = t.render();
    // Headline the policy trade-off at every matched configuration.
    for (e, l) in sweep.matched_pairs() {
        let eager = &sweep.rows[e];
        let lazy = &sweep.rows[l];
        let ratio = if eager.report.repair_per_useful_byte > 0.0 {
            lazy.report.repair_per_useful_byte / eager.report.repair_per_useful_byte
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "{} vs eager @ timeout {:.0}h, {}/s: {:.2}x repair bytes, {} vs {} lost files",
            lazy.policy.label(),
            lazy.timeout_hours,
            lazy.bandwidth,
            ratio,
            lazy.report.files_lost,
            eager.report.files_lost,
        );
    }
    out
}

/// Render the grouped-churn placement-strategy sweep.
pub fn render_placement_sweep(sweep: &PlacementSweep) -> String {
    let mut t = TableBuilder::new(
        format!(
            "Placement sweep: {} nodes ({} useful), {:.0} h of grouped churn per \
             configuration, domain cap {} blocks/chunk",
            sweep.nodes, sweep.useful_bytes, sweep.sim_hours, sweep.domain_cap
        ),
        &[
            "Strategy",
            "Group",
            "Outage every",
            "Files",
            "Lost",
            "Avail (mean)",
            "Avail (min)",
            "Repair traffic",
            "Repair/useful",
            "Max blk/dom",
            "Cap viol.",
            "Domains/chunk",
            "Outages",
        ],
    );
    for row in &sweep.rows {
        t.row(&[
            row.strategy.label().to_string(),
            format!("{}", row.group_size),
            format!("{:.0}h", row.outage_interval_hours),
            format!("{}", row.report.files_total),
            format!("{}", row.report.files_lost),
            format!("{:.1}%", row.report.availability_mean_pct),
            format!("{:.1}%", row.report.availability_min_pct),
            format!("{}", row.report.repair_bytes),
            format!("{:.4}", row.report.repair_per_useful_byte),
            format!("{}", row.max_in_one_domain),
            format!("{}", row.cap_violations),
            format!("{:.1}", row.mean_distinct_domains),
            format!("{}", row.report.group_outages),
        ]);
    }
    let mut out = t.render();
    // Headline the durability delta at every matched configuration.
    for (o, d) in sweep.matched_pairs() {
        let oblivious = &sweep.rows[o];
        let spread = &sweep.rows[d];
        let _ = writeln!(
            out,
            "domain-spread vs overlay-random @ group {}, outage ~{:.0}h: {} vs {} files lost, \
             {:.1}% vs {:.1}% mean availability, {} vs {} over-concentrated chunks",
            spread.group_size,
            spread.outage_interval_hours,
            spread.report.files_lost,
            oblivious.report.files_lost,
            spread.report.availability_mean_pct,
            oblivious.report.availability_mean_pct,
            spread.cap_violations,
            oblivious.cap_violations,
        );
    }
    let pairs = sweep.matched_pairs();
    if !pairs.is_empty() {
        let total = |pick: fn(&(usize, usize)) -> usize| -> u64 {
            pairs
                .iter()
                .map(|p| sweep.rows[pick(p)].report.files_lost)
                .sum()
        };
        let _ = writeln!(
            out,
            "total over matched configurations: domain-spread loses {} files vs overlay-random's {}",
            total(|&(_, d)| d),
            total(|&(o, _)| o),
        );
    }
    if !sweep.detector_rows.is_empty() {
        out.push('\n');
        out.push_str(&render_detector_axis(sweep));
    }
    out
}

/// Render the placement sweep's detector axis: detection kind × grouped
/// topology at fixed domain-spread placement.
fn render_detector_axis(sweep: &PlacementSweep) -> String {
    let mut t = TableBuilder::new(
        "Detector sweep: per-node vs outage-aware detection under grouped churn \
         (domain-spread placement, equal bandwidth)"
            .to_string(),
        &[
            "Detector",
            "Topology",
            "Files",
            "Lost",
            "Avail (mean)",
            "Repair traffic",
            "Repair/useful",
            "Wasted",
            "Wasted%",
            "False decl.",
            "Held",
            "Cancelled",
            "Outages",
        ],
    );
    for row in &sweep.detector_rows {
        t.row(&[
            row.report.detector.clone(),
            row.topology.clone(),
            format!("{}", row.report.files_total),
            format!("{}", row.report.files_lost),
            format!("{:.1}%", row.report.availability_mean_pct),
            format!("{}", row.report.repair_bytes),
            format!("{:.4}", row.report.repair_per_useful_byte),
            format!("{}", row.report.wasted_repair_bytes),
            format!("{:.1}%", 100.0 * row.report.wasted_repair_fraction()),
            format!("{}", row.report.false_declarations),
            format!("{}", row.report.declarations_held),
            format!("{}", row.report.held_cancelled),
            format!("{}", row.report.group_outages),
        ]);
    }
    let mut out = t.render();
    // Headline the repair-bill delta at every matched pairing.
    for (base, aware) in sweep.detector_pairs() {
        let b = &sweep.detector_rows[base];
        let a = &sweep.detector_rows[aware];
        let ratio = if a.report.repair_bytes.is_zero() {
            f64::INFINITY
        } else {
            b.report.repair_bytes.as_u64() as f64 / a.report.repair_bytes.as_u64() as f64
        };
        let _ = writeln!(
            out,
            "{} vs per-node @ {}: {:.4} vs {:.4} repair/useful ({:.1}x less), \
             {} vs {} files lost, wasted {:.1}% vs {:.1}%, {} held / {} cancelled",
            a.report.detector,
            a.topology,
            a.report.repair_per_useful_byte,
            b.report.repair_per_useful_byte,
            ratio,
            a.report.files_lost,
            b.report.files_lost,
            100.0 * a.report.wasted_repair_fraction(),
            100.0 * b.report.wasted_repair_fraction(),
            a.report.declarations_held,
            a.report.held_cancelled,
        );
    }
    out
}

/// Render Figure 11.
pub fn render_figure11(sweep: &RanSubSweep) -> String {
    let mut out = render_figure(&sweep.figure);
    let _ = writeln!(
        out,
        "completion epochs (3% .. 16%): {:?}",
        sweep.completion_epochs
    );
    out
}

/// Render Figure 12.
pub fn render_figure12(spread: &SpreadResult) -> String {
    let mut out = render_figure(&spread.figure);
    if let Some(done) = spread.completed_at {
        let _ = writeln!(out, "dissemination completed at epoch {done}");
    }
    out
}

/// Render Table 4.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut t = TableBuilder::new(
        "Table 4: Condor bigCopy time (seconds); overheads are relative to the whole-file scheme",
        &[
            "File size",
            "Whole file (s)",
            "Fixed chunks (s)",
            "(overhead)",
            "Varying chunks (s)",
            "(overhead)",
        ],
    );
    for row in rows {
        let whole = if row.whole.succeeded {
            format!("{:.1}", row.whole.elapsed_secs)
        } else {
            "N/A".to_string()
        };
        let fixed_ov = row
            .fixed_overhead_pct()
            .map(|p| format!("{p:.1}%"))
            .unwrap_or_else(|| "N/A".to_string());
        let varying_ov = row
            .varying_overhead_pct()
            .map(|p| format!("{p:.1}%"))
            .unwrap_or_else(|| "N/A".to_string());
        t.row(&[
            format!("{}", row.size),
            whole,
            format!("{:.1}", row.fixed.elapsed_secs),
            fixed_ov,
            format!("{:.1}", row.varying.elapsed_secs),
            varying_ov,
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::{run_table2, CodingConfig};
    use peerstripe_sim::ByteSize;

    #[test]
    fn table2_rendering_contains_all_codes() {
        let t2 = run_table2(&CodingConfig {
            chunk_size: ByteSize::kb(128),
            blocks: 128,
            runs: 1,
            seed: 1,
        });
        let text = render_table2(&t2);
        assert!(text.contains("Null"));
        assert!(text.contains("XOR"));
        assert!(text.contains("Online"));
        assert!(text.contains("ReedSolomon"));
        assert!(text.contains("Table 2"));
        assert!(text.contains("Min-decode"));
    }

    #[test]
    fn rs_sweep_rendering_lists_every_geometry() {
        use crate::coding::{run_rs_sweep, RsSweepConfig};
        let sweep = run_rs_sweep(&RsSweepConfig {
            geometries: vec![(4, 2), (8, 4)],
            chunk_sizes: vec![ByteSize::kb(64)],
            runs: 2,
            seed: 2,
        });
        let text = render_rs_sweep(&sweep);
        assert!(text.contains("ReedSolomon"));
        assert!(text.contains("RS(4, 6)"));
        assert!(text.contains("RS(8, 12)"));
        assert!(text.contains("Encode (MB/s)"));
        assert!(text.contains("100%"));
    }

    #[test]
    fn figure_rendering_includes_csv() {
        let mut fig = Figure::new("Test figure", "x", "y");
        let mut s = peerstripe_sim::Series::new("A");
        s.push(1.0, 2.0);
        fig.push_series(s);
        let text = render_figure(&fig);
        assert!(text.contains("Test figure"));
        assert!(text.contains("curve data"));
        assert!(text.contains("A"));
    }
}
