//! Churn and recovery: distribute an archive over a contributory pool, then fail
//! 10% of the participants and watch availability under the three erasure-coding
//! policies (none, XOR, online) — a miniature of the paper's Figure 10 and
//! Table 3 experiments.
//!
//! Run with: `cargo run --release --example churn_recovery`

use peerstripe::core::churn::{AvailabilityTracker, RegenerationSim};
use peerstripe::core::{ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig, StorageSystem};
use peerstripe::sim::{ByteSize, DetRng};
use peerstripe::trace::TraceConfig;

fn deploy(coding: CodingPolicy, nodes: usize, files: usize, seed: u64) -> PeerStripe {
    let mut rng = DetRng::new(seed);
    let cluster = ClusterConfig::scaled(nodes).build(&mut rng);
    let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
    let trace = TraceConfig::scaled(files).generate(seed ^ 0xabc);
    for file in &trace.files {
        let _ = ps.store_file(file);
    }
    ps
}

fn main() {
    let nodes = 400;
    let files = nodes * 25;
    let failures = nodes / 10;
    let seed = 17;

    println!("== Availability without recovery (Figure 10 in miniature) ==");
    println!(
        "{} nodes, {} files, failing {} nodes one by one\n",
        nodes, files, failures
    );
    for coding in [
        CodingPolicy::None,
        CodingPolicy::xor_2_3(),
        CodingPolicy::online_default(),
    ] {
        let mut ps = deploy(coding, nodes, files, seed);
        let mut tracker = AvailabilityTracker::build(ps.manifests());
        let mut rng = DetRng::new(seed ^ 0xfa11);
        for _ in 0..failures {
            if let Some(node) = ps.cluster().overlay().random_alive(&mut rng) {
                ps.cluster_mut().fail_node(node);
                tracker.fail_node(node);
            }
        }
        println!(
            "  {:<14} {:>6.2}% of files unavailable ({} of {})",
            coding.label(),
            tracker.unavailable_pct(),
            tracker.files_unavailable(),
            tracker.files_total()
        );
    }

    println!("\n== Regeneration under churn (Table 3 in miniature) ==");
    for fraction in [0.10, 0.20] {
        let mut ps = deploy(CodingPolicy::online_default(), nodes, files, seed);
        let stored = ps.metrics().bytes_stored;
        let mut sim = RegenerationSim::build(ps.manifests());
        let mut rng = DetRng::new(seed ^ 0x7ab1e);
        let report = sim.fail_fraction(ps.cluster_mut(), fraction, &mut rng);
        println!(
            "  fail {:>2.0}% of nodes: {} regenerated ({} per failure on average), {} of {} user data lost",
            fraction * 100.0,
            report.data_regenerated,
            ByteSize::bytes(report.per_failure.mean() as u64),
            report.data_lost,
            stored,
        );
    }
}
