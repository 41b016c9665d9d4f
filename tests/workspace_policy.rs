//! The two workspace rules no compiler lint expresses.
//!
//! * **Layering** — which `peerstripe-*` crate may depend on which.  The crate
//!   DAG is an architectural decision; checking each member manifest's
//!   `[dependencies]` against [`LAYERS`] makes "core grew a dependency on
//!   repair" fail tier-1 instead of surfacing three refactors later.
//!   Dev-dependencies are exempt: they never ship in the library graph.
//!   Cycles need no check here: cargo refuses a cyclic dependency graph.
//! * **Waiver inventory** — every site that breaks a `[workspace.lints]` rule
//!   carries `#[expect(<lint>, reason = "…")]`.  The count of those lines in
//!   library code (`crates/*/src`, `src/`) may shrink, never grow: a change
//!   that removes waivers lowers [`WAIVER_CEILING`] with them.
//! * **One client dial** — in the non-test part of `crates/net/src`, only the
//!   files in [`DIAL_SITES`] open a `TcpStream`: the gateway, the one client
//!   of the daemons, and the server's accept-loop wake-ups.  A second client
//!   would be a second path to the daemons and a second socket site for a
//!   transport seam to wrap.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Committed ceiling on `#[expect(` / `#![expect(` lines in library code.
const WAIVER_CEILING: usize = 9;

/// The files under `crates/net/src` whose non-test part may call
/// `TcpStream::connect`: the gateway's dial and the server's wake-ups.
const DIAL_SITES: &[&str] = &["gateway.rs", "server.rs"];

/// The allowed internal dependency edges: crate → the `peerstripe-*` crates
/// it may depend on, named without the prefix (`peerstripe` is the facade).
/// `sim` is the foundation (nothing internal below it); `core` may use
/// placement's traits but never the maintenance engine; `experiments` is the
/// top of the stack.
#[rustfmt::skip]
const LAYERS: &[(&str, &[&str])] = &[
    ("sim", &[]),
    // Telemetry sits below every sim crate: anything sim-facing may use it.
    ("telemetry", &[]),
    ("trace", &["sim"]),
    ("overlay", &["sim"]),
    ("erasure", &["sim"]),
    ("multicast", &["sim", "overlay"]),
    ("placement", &["sim", "overlay", "trace"]),
    ("core", &["sim", "overlay", "erasure", "trace", "placement"]),
    ("repair", &["sim", "overlay", "trace", "placement", "core", "telemetry"]),
    ("baselines", &["sim", "trace", "core"]),
    ("gridsim", &["sim", "trace", "core", "baselines"]),
    // The networked deployment path reuses the cluster-facing traits
    // (core/placement) and the metrics registry; it must never reach into
    // the repair engine or the experiment drivers.
    ("net", &["sim", "overlay", "placement", "core", "telemetry"]),
    ("experiments", &["sim", "trace", "overlay", "erasure", "multicast", "placement", "core",
                      "repair", "baselines", "gridsim", "telemetry", "net"]),
    // The facade re-exports everything below it by design.
    ("peerstripe", &["sim", "trace", "overlay", "erasure", "multicast", "placement", "core",
                     "repair", "baselines", "gridsim", "experiments", "telemetry", "net"]),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A manifest's package name and the `peerstripe-*` crates its
/// `[dependencies]` name, without the prefix, read line by line (no TOML parser: the workspace's
/// manifests use `name = "…"`, `dep.workspace = true` and `dep = { … }`).
fn internal_deps(manifest: &str) -> (String, Vec<String>) {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']);
            if let Some(dep) = section.strip_prefix("dependencies.") {
                deps.push(dep.to_string());
            }
            continue;
        }
        let key = line.split(['=', '.', ' ']).next().unwrap_or_default();
        match section {
            "package" if key == "name" => {
                name = line.split('"').nth(1).unwrap_or_default().to_string();
            }
            "dependencies" if key.starts_with("peerstripe") => deps.push(key.to_string()),
            _ => {}
        }
    }
    let short = |name: &str| name.strip_prefix("peerstripe-").unwrap_or(name).to_string();
    (short(&name), deps.iter().map(|d| short(d)).collect())
}

/// Every edge of `manifests` (`(path, text)` pairs) that [`LAYERS`] does not
/// permit, and every crate it does not list.
fn layering_violations(manifests: &[(String, String)]) -> Vec<String> {
    let policy: BTreeMap<&str, &[&str]> = LAYERS.iter().copied().collect();
    let mut violations = Vec::new();
    for (path, text) in manifests {
        let (name, deps) = internal_deps(text);
        let Some(allowed) = policy.get(name.as_str()) else {
            violations.push(format!("{path}: crate `{name}` is not in LAYERS"));
            continue;
        };
        for dep in deps.iter().filter(|d| !allowed.contains(&d.as_str())) {
            violations.push(format!("{path}: `{name}` must not depend on `{dep}`"));
        }
    }
    violations
}

/// The root manifest and every `crates/*/Cargo.toml`, as `(path, text)`.
fn member_manifests() -> io::Result<Vec<(String, String)>> {
    let mut paths = vec![root().join("Cargo.toml")];
    for entry in std::fs::read_dir(root().join("crates"))? {
        paths.push(entry?.path().join("Cargo.toml"));
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| Ok((p.display().to_string(), std::fs::read_to_string(&p)?)))
        .collect()
}

/// Lines of `source` that open a lint waiver.
fn waivers(source: &str) -> usize {
    source
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("#[expect(") || l.starts_with("#![expect("))
        .count()
}

fn check_inventory(count: usize, ceiling: usize) -> Result<(), String> {
    if count > ceiling {
        return Err(format!(
            "{count} #[expect] waivers in library code, over the committed ceiling of \
             {ceiling}: fix the new site instead of waiving it"
        ));
    }
    Ok(())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Waiver lines under `src/` and every `crates/*/src`.
fn library_waivers() -> io::Result<usize> {
    let mut files = Vec::new();
    collect_rs(&root().join("src"), &mut files)?;
    for entry in std::fs::read_dir(root().join("crates"))? {
        collect_rs(&entry?.path().join("src"), &mut files)?;
    }
    let mut count = 0;
    for file in files {
        count += waivers(&std::fs::read_to_string(file)?);
    }
    Ok(count)
}

/// Every file of `files` (`(path under crates/net/src, text)` pairs) outside
/// [`DIAL_SITES`] whose non-test part, up to its first `#[cfg(test)]`, dials.
fn dial_violations(files: &[(String, String)]) -> Vec<String> {
    files
        .iter()
        .filter(|(path, _)| !DIAL_SITES.contains(&path.as_str()))
        .filter(|(_, text)| {
            let body = text.split("#[cfg(test)]").next().unwrap_or_default();
            body.contains("TcpStream::connect")
        })
        .map(|(path, _)| format!("{path}: a client dial outside the gateway"))
        .collect()
}

/// Every `.rs` under `crates/net/src`, as `(path relative to it, text)`.
fn net_sources() -> io::Result<Vec<(String, String)>> {
    let dir = root().join("crates/net/src");
    let mut files = Vec::new();
    collect_rs(&dir, &mut files)?;
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(&dir).unwrap_or(&p).display().to_string();
            Ok((rel, std::fs::read_to_string(&p)?))
        })
        .collect()
}

#[test]
fn the_workspace_follows_its_layering() {
    let manifests = member_manifests().unwrap();
    assert_eq!(manifests.len(), LAYERS.len(), "one manifest per LAYERS row");
    assert_eq!(layering_violations(&manifests), Vec::<String>::new());
}

#[test]
fn a_forbidden_edge_fails_the_layering_check() {
    let net = "[package]\nname = \"peerstripe-net\"\n\n[dependencies]\n\
               peerstripe-core.workspace = true\npeerstripe-repair = { path = \"../repair\" }\n\
               \n[dev-dependencies]\npeerstripe-experiments.workspace = true\n";
    let manifests = [("net/Cargo.toml".to_string(), net.to_string())];
    assert_eq!(
        layering_violations(&manifests),
        ["net/Cargo.toml: `net` must not depend on `repair`"]
    );
    let unknown = [(
        "x/Cargo.toml".into(),
        "[package]\nname = \"peerstripe-x\"\n".into(),
    )];
    assert_eq!(layering_violations(&unknown).len(), 1);
}

#[test]
fn the_waiver_inventory_stays_under_its_ceiling() {
    let count = library_waivers().unwrap();
    assert!(count > 0, "the inventory scan found no waivers at all");
    check_inventory(count, WAIVER_CEILING).unwrap();
}

#[test]
fn one_waiver_over_the_ceiling_fails() {
    let waiver = "    #[expect(clippy::unwrap_used, reason = \"r\")]\n    let x = y.unwrap();\n";
    let source = waiver.repeat(WAIVER_CEILING + 1) + "//! #[expect( in a doc comment\n";
    assert_eq!(waivers(&source), WAIVER_CEILING + 1);
    assert!(check_inventory(waivers(&source), WAIVER_CEILING).is_err());
}

#[test]
fn only_the_gateway_dials_a_daemon() {
    let files = net_sources().unwrap();
    assert!(files.iter().any(|(p, _)| p == "gateway.rs"), "{files:?}");
    assert_eq!(dial_violations(&files), Vec::<String>::new());
}

#[test]
fn a_second_client_dial_fails_the_check() {
    let client = "fn scrape() { TcpStream::connect_timeout(&addr, t); }\n";
    let test_only = "#[cfg(test)]\nmod tests {\n    fn f() { TcpStream::connect(addr); }\n}\n";
    let files = [
        ("gateway.rs".to_string(), client.to_string()),
        ("monitor.rs".to_string(), client.to_string()),
        ("node.rs".to_string(), test_only.to_string()),
    ];
    assert_eq!(
        dial_violations(&files),
        ["monitor.rs: a client dial outside the gateway"]
    );
}
