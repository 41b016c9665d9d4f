//! The failure-domain topology: domain (rack/lab) → node.
//!
//! Desktop-grid nodes do not fail independently — a lab powers down overnight,
//! a switch dies, a building loses power over a weekend.  [`Topology`] models
//! the grouping behind those correlated failures: every node belongs to
//! exactly one *domain* (a rack, lab, or office).  Placement strategies
//! consult the topology to keep a chunk's blocks spread over enough domains that losing
//! any single one never costs more blocks than the coding tolerates, and the
//! grouped-churn process in `peerstripe-repair` uses the same structure to
//! draw whole-domain outage events, and its failure detector to tell such an
//! outage from independent departures.
//!
//! Topologies are built synthetically from a seed ([`Topology::synthetic`],
//! [`Topology::uniform_groups`]) or derived from a session trace, whose
//! session/downtime durations separate office machines, laptops and always-on
//! lab nodes ([`Topology::from_sessions`]).

use peerstripe_overlay::NodeRef;
use peerstripe_sim::DetRng;
use peerstripe_trace::SessionTrace;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Index of a failure domain within a [`Topology`].
pub type DomainId = u32;

/// One failure domain: a rack, lab, or office that fails as a unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Domain {
    /// Human-readable label, e.g. `site1/lab3`.
    pub label: String,
    /// The member nodes.
    pub members: Vec<NodeRef>,
}

/// The domain → node hierarchy with per-node domain lookup.
///
/// Immutable once built, and its domain list is shared by every clone — which
/// keeps a clone cheap (the placement index, the grouped churn and the
/// failure detector each hold one) and lets a [`crate::DomainIndex`] tell in
/// one pointer comparison whether a decision is being made with the topology
/// it was built for ([`crate::DomainIndex::serves`]); two topologies built
/// separately are never the same to it, even when equal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    pub(crate) domains: Arc<Vec<Domain>>,
    /// Domain of every node, indexed by [`NodeRef`]; `None` for nodes outside
    /// the modelled hierarchy (late joiners, untracked contributors).
    domain_of: Vec<Option<DomainId>>,
}

impl Topology {
    /// Build a topology from explicit domain membership lists.  Panics if a
    /// node appears in two domains.
    pub fn from_domains(domains: Vec<Domain>) -> Self {
        let nodes = domains
            .iter()
            .flat_map(|d| d.members.iter())
            .max()
            .map(|&n| n + 1)
            .unwrap_or(0);
        let mut domain_of = vec![None; nodes];
        for (i, domain) in domains.iter().enumerate() {
            for &node in &domain.members {
                assert!(
                    domain_of[node].is_none(),
                    "node {node} assigned to two domains"
                );
                domain_of[node] = Some(i as DomainId);
            }
        }
        Topology {
            domains: Arc::new(domains),
            domain_of,
        }
    }

    /// A topology of consecutive groups of `group_size` nodes:
    /// nodes `0..group_size` form domain 0, and so on.  The simplest grouped
    /// model — "every switch serves `group_size` desks" — and the one the
    /// grouped-churn sweeps use (node refs are uncorrelated with overlay ids,
    /// so sequential grouping is as random as the DHT sees).
    pub fn uniform_groups(nodes: usize, group_size: usize) -> Self {
        assert!(group_size > 0, "group size must be positive");
        let domains = (0..nodes)
            .step_by(group_size)
            .enumerate()
            .map(|(g, start)| Domain {
                label: format!("site0/group{g}"),
                members: (start..(start + group_size).min(nodes)).collect(),
            })
            .collect();
        Topology::from_domains(domains)
    }

    /// A randomised multi-site hierarchy: `sites` buildings, each holding
    /// `domains_per_site` labs, with nodes shuffled over the labs and lab
    /// sizes jittered by the seed (real labs are never the same size).
    pub fn synthetic(nodes: usize, sites: usize, domains_per_site: usize, seed: u64) -> Self {
        assert!(sites > 0 && domains_per_site > 0);
        let mut rng = DetRng::new(seed).fork("topology");
        let mut order: Vec<NodeRef> = (0..nodes).collect();
        rng.shuffle(&mut order);
        let total_domains = sites * domains_per_site;
        // Jittered split points: each domain's share is 0.5x .. 1.5x the mean.
        let mut weights: Vec<f64> = (0..total_domains).map(|_| 0.5 + rng.next_f64()).collect();
        let sum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= sum;
        }
        let mut domains = Vec::with_capacity(total_domains);
        let mut cursor = 0usize;
        for (d, weight) in weights.iter().enumerate() {
            let site = d / domains_per_site;
            let take = if d == total_domains - 1 {
                nodes - cursor
            } else {
                ((weight * nodes as f64).round() as usize).min(nodes - cursor)
            };
            domains.push(Domain {
                label: format!("site{site}/lab{}", d % domains_per_site),
                members: order[cursor..cursor + take].to_vec(),
            });
            cursor += take;
        }
        Topology::from_domains(domains)
    }

    /// Derive domains from a session trace: machine `i`'s observed session and
    /// downtime lengths classify it as an office desktop (workday sessions,
    /// overnight gaps), a laptop (short sessions), or an always-on lab node
    /// (multi-day sessions), and each class is split round-robin into
    /// `domains_per_class` labs.
    pub fn from_sessions(trace: &SessionTrace, domains_per_class: usize) -> Self {
        assert!(domains_per_class > 0);
        let hour = 3_600.0;
        let mut classes: [Vec<NodeRef>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (node, &session) in trace.sessions.iter().enumerate() {
            let class = if session >= 24.0 * hour {
                2 // always-on lab machine
            } else if session <= 4.0 * hour {
                1 // laptop
            } else {
                0 // office desktop
            };
            classes[class].push(node);
        }
        let names = ["office", "laptop", "lab"];
        let mut domains = Vec::new();
        for (class, members) in names.iter().zip(classes) {
            if members.is_empty() {
                continue;
            }
            let mut split: Vec<Vec<NodeRef>> = vec![Vec::new(); domains_per_class];
            for (i, node) in members.into_iter().enumerate() {
                split[i % domains_per_class].push(node); // i % domains_per_class < domains_per_class == split.len()
            }
            for (g, members) in split.into_iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                domains.push(Domain {
                    label: format!("{class}/{g}"),
                    members,
                });
            }
        }
        Topology::from_domains(domains)
    }

    /// Number of failure domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Number of nodes the topology covers (the highest member ref + 1).
    pub fn node_count(&self) -> usize {
        self.domain_of.len()
    }

    /// The failure domain of a node, or `None` for nodes outside the hierarchy.
    pub fn domain_of(&self, node: NodeRef) -> Option<DomainId> {
        self.domain_of.get(node).copied().flatten()
    }

    /// A domain's member nodes.
    pub fn members(&self, domain: DomainId) -> &[NodeRef] {
        &self.domains[domain as usize].members
    }

    /// Iterate over all domains.
    pub fn domains(&self) -> impl Iterator<Item = (DomainId, &Domain)> {
        self.domains
            .iter()
            .enumerate()
            .map(|(i, d)| (i as DomainId, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_groups_partition_every_node() {
        let topo = Topology::uniform_groups(23, 5);
        assert_eq!(topo.domain_count(), 5, "23 nodes in groups of 5");
        assert_eq!(topo.node_count(), 23);
        let mut seen = [false; 23];
        for (d, domain) in topo.domains() {
            for &n in &domain.members {
                assert!(!seen[n], "node {n} in two domains");
                seen[n] = true;
                assert_eq!(topo.domain_of(n), Some(d));
            }
        }
        assert!(seen.iter().all(|&s| s), "every node assigned");
        assert_eq!(topo.members(4).len(), 3, "last group holds the remainder");
        assert_eq!(topo.domain_of(100), None, "unknown nodes have no domain");
    }

    #[test]
    fn synthetic_hierarchy_is_deterministic_and_total() {
        let a = Topology::synthetic(200, 3, 4, 7);
        let b = Topology::synthetic(200, 3, 4, 7);
        assert_eq!(a, b);
        assert_eq!(a.domain_count(), 12);
        let covered: usize = a.domains().map(|(_, d)| d.members.len()).sum();
        assert_eq!(covered, 200);
        for n in 0..200 {
            let d = a.domain_of(n).expect("every node has a domain");
            assert!(a.members(d).contains(&n));
            assert!(a.domains[d as usize].label.starts_with("site"));
        }
        // Jitter produces unequal lab sizes.
        let sizes: Vec<usize> = a.domains().map(|(_, d)| d.members.len()).collect();
        assert!(sizes.iter().any(|&s| s != sizes[0]));
    }

    #[test]
    fn session_domains_separate_machine_classes() {
        let trace = SessionTrace::synthetic_desktop_grid(300, 11);
        let topo = Topology::from_sessions(&trace, 3);
        assert!(topo.domain_count() >= 3);
        let covered: usize = topo.domains().map(|(_, d)| d.members.len()).sum();
        assert_eq!(covered, 300);
        // Labels carry the inferred class.
        let labels: Vec<&str> = topo.domains().map(|(_, d)| d.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.starts_with("office/")));
        assert!(labels.iter().any(|l| l.starts_with("lab/")));
    }

    #[test]
    #[should_panic(expected = "two domains")]
    fn duplicate_membership_is_rejected() {
        Topology::from_domains(vec![
            Domain {
                label: "a".into(),
                members: vec![0, 1],
            },
            Domain {
                label: "b".into(),
                members: vec![1, 2],
            },
        ]);
    }
}
