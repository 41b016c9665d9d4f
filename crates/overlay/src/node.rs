//! Overlay participants and the synthetic proximity metric.
//!
//! Pastry's routing table is *proximity aware*: among the candidate entries for a
//! routing-table slot it prefers the one closest by a network proximity metric
//! (e.g. round-trip time).  The paper exploits this to build locality-aware
//! multicast trees for replica creation (Section 4.4.1).  The simulator models
//! proximity by placing every node at a random coordinate on a unit torus and
//! using wrap-around Euclidean distance, a standard stand-in for Internet
//! latency in overlay simulations.

use crate::id::Id;

/// A synthetic network coordinate on the unit torus.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coord {
    /// Horizontal position in `[0, 1)`.
    pub x: f64,
    /// Vertical position in `[0, 1)`.
    pub y: f64,
}

impl Coord {
    /// Draw a uniformly random coordinate.
    pub fn random(rng: &mut peerstripe_sim::DetRng) -> Self {
        Coord {
            x: rng.next_f64(),
            y: rng.next_f64(),
        }
    }

    /// Torus (wrap-around) Euclidean distance — the proximity metric.
    pub fn distance(&self, other: &Coord) -> f64 {
        let dx = (self.x - other.x).abs();
        let dy = (self.y - other.y).abs();
        let dx = dx.min(1.0 - dx);
        let dy = dy.min(1.0 - dy);
        (dx * dx + dy * dy).sqrt()
    }
}

/// State of one overlay participant.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// The node's overlay identifier.
    pub id: Id,
    /// Synthetic network coordinate used for proximity-aware decisions.
    pub coord: Coord,
    /// Whether the node is currently live (participating).
    pub alive: bool,
}

impl NodeInfo {
    /// Create a live node.
    pub fn new(id: Id, coord: Coord) -> Self {
        NodeInfo {
            id,
            coord,
            alive: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_sim::DetRng;

    #[test]
    fn torus_distance_wraps() {
        let a = Coord { x: 0.05, y: 0.5 };
        let b = Coord { x: 0.95, y: 0.5 };
        assert!((a.distance(&b) - 0.1).abs() < 1e-12, "wraps the short way");
        assert_eq!(a.distance(&a), 0.0);
        // Symmetry.
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-15);
    }

    #[test]
    fn distance_bounded_by_torus_diameter() {
        let mut rng = DetRng::new(1);
        for _ in 0..1000 {
            let a = Coord::random(&mut rng);
            let b = Coord::random(&mut rng);
            let d = a.distance(&b);
            assert!((0.0..=0.7072).contains(&d));
        }
    }

    #[test]
    fn node_info_starts_alive() {
        let n = NodeInfo::new(Id(7), Coord { x: 0.1, y: 0.2 });
        assert!(n.alive);
        assert_eq!(n.id, Id(7));
    }
}
