//! The workspace's one wall clock.  The RPC accounts (`peerstripe-net`) time
//! each request at both ends of the wire, and the experiment drivers time
//! Table 2, the RS sweep, `repro ring`'s phases and the perf snapshots; all
//! of them read the host clock through [`Started`] and nowhere else.  No
//! simulation result reads it: simulations keep `peerstripe_sim::SimTime`.

/// When a measured interval began: a request on either side of the wire, or
/// a timed pass of an experiment driver.
pub struct Started(std::time::Instant);

impl Started {
    /// Start the clock.
    #[inline]
    pub fn now() -> Started {
        #[expect(
            clippy::disallowed_methods,
            reason = "measuring elapsed wall time is this clock's whole job; nothing that reads it feeds simulation results"
        )]
        Started(std::time::Instant::now())
    }

    /// Milliseconds since the clock started.
    #[inline]
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }
}
