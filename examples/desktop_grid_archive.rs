//! Desktop-grid archive: compare PAST, CFS, and PeerStripe on the workload the
//! paper's introduction motivates — large scientific files (multimedia,
//! high-resolution medical images, weather data) archived onto the spare disk
//! space of an office full of desktops.
//!
//! This is a miniature version of the paper's Figures 7–9 / Table 1 experiment.
//!
//! Run with: `cargo run --release --example desktop_grid_archive`

use peerstripe::experiments::storesim::{run_single_system, StoreSimConfig, SystemKind};
use peerstripe::trace::TraceConfig;

fn main() {
    // A department with 300 desktops contributing N(45 GB, 10 GB) each, and an
    // archive of large files matching the paper's trace statistics, sized to
    // roughly 64% of the total contributed capacity.
    let config = StoreSimConfig {
        nodes: 300,
        files: 36_000,
        samples: 1,
        seed: 99,
    };
    let trace = TraceConfig::scaled(config.files).generate(config.seed);
    println!(
        "archiving {} files ({}) onto {} desktops\n",
        trace.len(),
        trace.total_size(),
        config.nodes
    );

    // The three systems run on identically seeded pools, each built as the
    // paper's comparison builds it.
    let [past, cfs, ours] = SystemKind::ALL.map(|kind| run_single_system(kind, &config, &trace));

    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>16} {:>14}",
        "system", "failed stores", "failed data", "utilization", "chunks per file", "chunk size"
    );
    for run in [&past, &cfs, &ours] {
        println!(
            "{:<12} {:>13.1}% {:>13.1}% {:>13.1}% {:>16.2} {:>14}",
            run.kind.label(),
            run.final_failed_pct,
            run.final_failed_bytes_pct,
            run.final_utilization_pct,
            run.chunk_count_mean,
            run.chunk_size_mean,
        );
    }

    println!(
        "\nPeerStripe reduced failed stores by {:.1}x vs PAST and {:.1}x vs CFS \
         (the paper reports 7.0x and 2.9x at 10,000-node scale).",
        past.final_failed_pct / ours.final_failed_pct.max(0.01),
        cfs.final_failed_pct / ours.final_failed_pct.max(0.01),
    );
}
