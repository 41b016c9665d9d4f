//! Desktop-grid archive: compare PAST, CFS, and PeerStripe on the workload the
//! paper's introduction motivates — large scientific files (multimedia,
//! high-resolution medical images, weather data) archived onto the spare disk
//! space of an office full of desktops.
//!
//! This is a miniature version of the paper's Figures 7–9 / Table 1 experiment.
//!
//! Run with: `cargo run --release --example desktop_grid_archive`

use peerstripe::baselines::{Cfs, Past};
use peerstripe::core::{ClusterConfig, PeerStripe, PeerStripeConfig, StorageSystem};
use peerstripe::sim::{ByteSize, DetRng};
use peerstripe::trace::TraceConfig;

fn main() {
    // A department with 300 desktops contributing N(45 GB, 10 GB) each, and an
    // archive of large files matching the paper's trace statistics, sized to
    // roughly 64% of the total contributed capacity.
    let nodes = 300;
    let files = nodes * 120;
    let seed = 99;
    let trace = TraceConfig::scaled(files).generate(seed);
    println!(
        "archiving {} files ({}) onto {} desktops\n",
        trace.len(),
        trace.total_size(),
        nodes
    );

    let build_cluster = || {
        let mut rng = DetRng::new(seed);
        ClusterConfig::scaled(nodes).build(&mut rng)
    };

    // The three systems run on identically seeded pools.
    let mut past = Past::new(build_cluster());
    let mut cfs = Cfs::new(build_cluster(), 8);
    let mut ours = PeerStripe::new(
        build_cluster(),
        PeerStripeConfig {
            max_chunk_size: Some(ByteSize::mb(96)),
            ..PeerStripeConfig::default()
        },
    );

    for file in &trace.files {
        let _ = past.store_file(file);
        let _ = cfs.store_file(file);
        let _ = ours.store_file(file);
    }

    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>16} {:>14}",
        "system", "failed stores", "failed data", "utilization", "chunks per file", "chunk size"
    );
    for system in [&past as &dyn StorageSystem, &cfs, &ours] {
        let m = system.metrics();
        println!(
            "{:<12} {:>13.1}% {:>13.1}% {:>13.1}% {:>16.2} {:>14}",
            system.name(),
            m.failed_store_pct(),
            m.failed_bytes_pct(),
            system.utilization() * 100.0,
            m.mean_chunks_per_file(),
            m.mean_chunk_size(),
        );
    }

    println!(
        "\nPeerStripe reduced failed stores by {:.1}x vs PAST and {:.1}x vs CFS \
         (the paper reports 7.0x and 2.9x at 10,000-node scale).",
        past.metrics().failed_store_pct() / ours.metrics().failed_store_pct().max(0.01),
        cfs.metrics().failed_store_pct() / ours.metrics().failed_store_pct().max(0.01),
    );
}
