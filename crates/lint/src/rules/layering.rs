//! Layering rule: the workspace crate DAG is an architectural decision, and
//! this rule makes it executable.  Each internal (`peerstripe-*`) dependency
//! edge must be declared in the policy table, and the actual graph must stay
//! acyclic — so "core grew a dependency on repair" fails CI instead of
//! surfacing three refactors later.
//!
//! Dev-dependencies are exempt: they never ship in the library graph and
//! cargo already rejects dev-cycles that matter.

use crate::diag::Finding;
use crate::manifest::Manifest;
use std::collections::{BTreeMap, BTreeSet};

/// The allowed internal dependency edges, crate name → permitted deps.
#[derive(Debug, Clone, Default)]
pub struct LayerPolicy {
    pub allowed: BTreeMap<String, BTreeSet<String>>,
    /// Prefix that marks a dependency as internal (e.g. `peerstripe-`).
    pub internal_prefix: String,
}

impl LayerPolicy {
    pub fn new(internal_prefix: &str) -> Self {
        LayerPolicy {
            allowed: BTreeMap::new(),
            internal_prefix: internal_prefix.to_string(),
        }
    }

    pub fn allow(mut self, krate: &str, deps: &[&str]) -> Self {
        self.allowed
            .entry(krate.to_string())
            .or_default()
            .extend(deps.iter().map(|d| d.to_string()));
        self
    }
}

/// The layering policy for **this** workspace.  `sim` is the foundation
/// (nothing internal below it); `core` may use placement's traits but never
/// the maintenance engine; `experiments` is the top of the stack.
pub fn builtin_policy() -> LayerPolicy {
    LayerPolicy::new("peerstripe-")
        .allow("peerstripe-sim", &[])
        // Telemetry sits below every sim crate: anything sim-facing may use
        // it, and it depends only on the vendored serde.
        .allow("peerstripe-telemetry", &[])
        .allow("peerstripe-trace", &["peerstripe-sim"])
        .allow("peerstripe-overlay", &["peerstripe-sim"])
        .allow("peerstripe-erasure", &["peerstripe-sim"])
        .allow("peerstripe-lint", &[])
        .allow(
            "peerstripe-multicast",
            &["peerstripe-sim", "peerstripe-overlay"],
        )
        .allow(
            "peerstripe-placement",
            &["peerstripe-sim", "peerstripe-overlay", "peerstripe-trace"],
        )
        .allow(
            "peerstripe-core",
            &[
                "peerstripe-sim",
                "peerstripe-overlay",
                "peerstripe-erasure",
                "peerstripe-trace",
                "peerstripe-placement",
                "peerstripe-telemetry",
            ],
        )
        .allow(
            "peerstripe-repair",
            &[
                "peerstripe-sim",
                "peerstripe-overlay",
                "peerstripe-trace",
                "peerstripe-placement",
                "peerstripe-core",
                "peerstripe-telemetry",
            ],
        )
        .allow(
            "peerstripe-baselines",
            &["peerstripe-sim", "peerstripe-trace", "peerstripe-core"],
        )
        .allow(
            "peerstripe-gridsim",
            &[
                "peerstripe-sim",
                "peerstripe-trace",
                "peerstripe-core",
                "peerstripe-baselines",
            ],
        )
        // The networked deployment path: speaks TCP to real daemons but
        // reuses the cluster-facing traits (core/placement) and the metrics
        // registry; it must never reach into the repair engine or the
        // experiment drivers.
        .allow(
            "peerstripe-net",
            &[
                "peerstripe-sim",
                "peerstripe-overlay",
                "peerstripe-placement",
                "peerstripe-core",
                "peerstripe-telemetry",
            ],
        )
        .allow(
            "peerstripe-experiments",
            &[
                "peerstripe-sim",
                "peerstripe-trace",
                "peerstripe-overlay",
                "peerstripe-erasure",
                "peerstripe-multicast",
                "peerstripe-placement",
                "peerstripe-core",
                "peerstripe-repair",
                "peerstripe-baselines",
                "peerstripe-gridsim",
                "peerstripe-lint",
                "peerstripe-telemetry",
                "peerstripe-net",
            ],
        )
        // The facade re-exports everything below it by design.
        .allow(
            "peerstripe",
            &[
                "peerstripe-sim",
                "peerstripe-trace",
                "peerstripe-overlay",
                "peerstripe-erasure",
                "peerstripe-multicast",
                "peerstripe-placement",
                "peerstripe-core",
                "peerstripe-repair",
                "peerstripe-baselines",
                "peerstripe-gridsim",
                "peerstripe-experiments",
                "peerstripe-lint",
                "peerstripe-telemetry",
                "peerstripe-net",
            ],
        )
}

/// Check every member manifest against the policy and the graph for cycles.
/// `manifests` pairs each parsed manifest with the path to report against.
pub fn check_layering(manifests: &[(String, Manifest)], policy: &LayerPolicy) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();

    for (path, manifest) in manifests {
        if manifest.package_name.is_empty() {
            continue;
        }
        let name = manifest.package_name.as_str();
        let allowed = policy.allowed.get(name);
        if allowed.is_none() && name.starts_with(&policy.internal_prefix) {
            findings.push(Finding {
                rule: "layering",
                path: path.clone(),
                line: 1,
                message: format!(
                    "crate `{name}` is not in the layering policy: add it to \
                     builtin_policy() with its permitted dependencies"
                ),
            });
        }
        for dep in &manifest.deps {
            if !dep.name.starts_with(&policy.internal_prefix) && dep.name != "peerstripe" {
                continue;
            }
            if dep.section != "dependencies" {
                continue; // dev/build deps are outside the shipped graph
            }
            edges.entry(name).or_default().insert(dep.name.as_str());
            if let Some(allowed) = allowed {
                if !allowed.contains(&dep.name) {
                    findings.push(Finding {
                        rule: "layering",
                        path: path.clone(),
                        line: dep.line,
                        message: format!(
                            "`{name}` must not depend on `{}`: edge is not in the \
                             workspace layering policy",
                            dep.name
                        ),
                    });
                }
            }
        }
    }

    // Cycle detection over the actual edges (colour-marking DFS).
    let mut colours: BTreeMap<&str, u8> = BTreeMap::new();
    let nodes: Vec<&str> = edges.keys().copied().collect();
    for node in nodes {
        let mut stack = Vec::new();
        if let Some(cycle) = dfs_cycle(node, &edges, &mut colours, &mut stack) {
            findings.push(Finding {
                rule: "layering",
                path: "Cargo.toml".to_string(),
                line: 1,
                message: format!("dependency cycle: {}", cycle.join(" -> ")),
            });
        }
    }
    findings
}

fn dfs_cycle<'a>(
    node: &'a str,
    edges: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    colours: &mut BTreeMap<&'a str, u8>,
    stack: &mut Vec<&'a str>,
) -> Option<Vec<String>> {
    match colours.get(node) {
        Some(2) => return None,
        Some(1) => {
            // Found the back edge: report the cycle from the stacked entry.
            let from = stack.iter().position(|n| *n == node).unwrap_or(0);
            let mut cycle: Vec<String> = stack
                .get(from..)
                .unwrap_or(&[])
                .iter()
                .map(|s| s.to_string())
                .collect();
            cycle.push(node.to_string());
            return Some(cycle);
        }
        _ => {}
    }
    colours.insert(node, 1);
    stack.push(node);
    if let Some(deps) = edges.get(node) {
        for dep in deps {
            if let Some(cycle) = dfs_cycle(dep, edges, colours, stack) {
                return Some(cycle);
            }
        }
    }
    stack.pop();
    colours.insert(node, 2);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::parse;

    fn member(path: &str, toml: &str) -> (String, Manifest) {
        (path.to_string(), parse(toml))
    }

    #[test]
    fn allowed_edges_pass() {
        let policy = LayerPolicy::new("peerstripe-")
            .allow("peerstripe-a", &["peerstripe-b"])
            .allow("peerstripe-b", &[]);
        let manifests = vec![
            member(
                "a/Cargo.toml",
                "[package]\nname = \"peerstripe-a\"\n[dependencies]\npeerstripe-b = {}\n",
            ),
            member("b/Cargo.toml", "[package]\nname = \"peerstripe-b\"\n"),
        ];
        assert!(check_layering(&manifests, &policy).is_empty());
    }

    #[test]
    fn forbidden_edge_is_reported_with_its_line() {
        let policy = LayerPolicy::new("peerstripe-")
            .allow("peerstripe-a", &[])
            .allow("peerstripe-b", &[]);
        let manifests = vec![member(
            "a/Cargo.toml",
            "[package]\nname = \"peerstripe-a\"\n[dependencies]\npeerstripe-b = {}\n",
        )];
        let findings = check_layering(&manifests, &policy);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("must not depend"));
    }

    #[test]
    fn cycles_are_reported_even_when_each_edge_is_allowed() {
        let policy = LayerPolicy::new("peerstripe-")
            .allow("peerstripe-a", &["peerstripe-b"])
            .allow("peerstripe-b", &["peerstripe-a"]);
        let manifests = vec![
            member(
                "a/Cargo.toml",
                "[package]\nname = \"peerstripe-a\"\n[dependencies]\npeerstripe-b = {}\n",
            ),
            member(
                "b/Cargo.toml",
                "[package]\nname = \"peerstripe-b\"\n[dependencies]\npeerstripe-a = {}\n",
            ),
        ];
        let findings = check_layering(&manifests, &policy);
        assert!(findings.iter().any(|f| f.message.contains("cycle")));
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let policy = LayerPolicy::new("peerstripe-")
            .allow("peerstripe-a", &[])
            .allow("peerstripe-b", &[]);
        let manifests = vec![member(
            "a/Cargo.toml",
            "[package]\nname = \"peerstripe-a\"\n[dev-dependencies]\npeerstripe-b = {}\n",
        )];
        assert!(check_layering(&manifests, &policy).is_empty());
    }

    #[test]
    fn unknown_internal_crate_is_reported() {
        let policy = LayerPolicy::new("peerstripe-");
        let manifests = vec![member(
            "x/Cargo.toml",
            "[package]\nname = \"peerstripe-new\"\n",
        )];
        let findings = check_layering(&manifests, &policy);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("not in the layering policy"));
    }

    #[test]
    fn builtin_policy_covers_the_facade() {
        let policy = builtin_policy();
        assert!(policy.allowed.contains_key("peerstripe"));
        assert!(policy.allowed["peerstripe-sim"].is_empty());
        assert!(!policy.allowed["peerstripe-core"].contains("peerstripe-repair"));
        assert!(!policy.allowed["peerstripe-repair"].contains("peerstripe-erasure"));
    }
}
