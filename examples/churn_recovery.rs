//! Churn and recovery: distribute an archive over a contributory pool, then fail
//! 10% of the participants and watch availability under the three erasure-coding
//! policies (none, XOR, online) — a miniature of the paper's Figure 10 and
//! Table 3 experiments.
//!
//! Run with: `cargo run --release --example churn_recovery`

use peerstripe::core::{
    ClusterConfig, CodingPolicy, DamageLedger, PeerStripe, PeerStripeConfig, StorageSystem,
};
use peerstripe::experiments::availability::{run_regeneration, ChurnConfig};
use peerstripe::sim::DetRng;
use peerstripe::trace::TraceConfig;

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
    let trace = TraceConfig::scaled(files).generate(seed ^ 0xabc);
    for coding in [
        CodingPolicy::None,
        CodingPolicy::xor_2_3(),
        CodingPolicy::online_default(),
    ] {
        let cluster = ClusterConfig::scaled(nodes).build(&mut DetRng::new(seed));
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
        for file in &trace.files {
            let _ = ps.store_file(file);
        }
        // The ledger indexes every placed block by its holder; telling it a
        // node went down costs one step per block that node holds.
        let mut ledger = DamageLedger::build(ps.manifests());
        let mut rng = DetRng::new(seed ^ 0xfa11);
        for (node, _) in ps.backend_mut().fail_random(failures, &mut rng) {
            ledger.node_down(node);
        }
        println!(
            "  {:<14} {:>6.2}% of files unavailable ({} of {})",
            coding.label(),
            ledger.unavailable_pct(),
            ledger.files_unavailable(),
            ledger.file_count()
        );
        assert!(ledger.is_consistent(|n| ps.cluster().overlay().is_alive(n)));
    }

    println!("\n== Regeneration under churn (Table 3 in miniature) ==");
    let config = ChurnConfig {
        nodes,
        files,
        failures,
        samples: 1,
        seed,
    };
    for row in run_regeneration(&config) {
        println!(
            "  fail {:>2.0}% of nodes: {} regenerated ({} per failure on average), {} of {} user data lost",
            row.failed_fraction * 100.0,
            row.data_regenerated,
            row.regen_per_failure_mean,
            row.data_lost,
            row.total_data,
        );
        assert!(row.data_lost < row.total_data);
    }
}
