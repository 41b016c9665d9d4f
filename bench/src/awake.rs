//! Keeps the CPUs from going idle while a pass measures.
//!
//! A closed-loop client blocks on every RPC, so its CPU goes idle a few
//! thousand times a second.  On a virtual machine an idle CPU halts, how
//! fast the host wakes it again depends on the host, and whether the guest
//! scheduler wakes the daemon's thread on the halted CPU or beside the
//! client changes from second to second: on this box whole blocks of rounds
//! ran at 1.0x or at 1.7x (`ring_small_file` store medians of 1.08 or
//! 1.80 ms), and a run's result followed the mix it happened to see.
//!
//! One `nice 19` spinning thread per CPU keeps every CPU out of the halted
//! state; the same rounds then read 0.93–1.09 ms, run after run.  The
//! spinners get about 1.5 % of a CPU that real work also wants.  What they
//! cost the program: a short-lived worker thread (RS encode forks one per
//! chunk) finds no idle CPU to start on and often runs beside its parent
//! until the load balancer moves it, so fork-join speed-ups of well under a
//! millisecond are under-credited.  `SCHED_IDLE` spinners, which the
//! scheduler counts as idle CPUs, were tried and brought the 1.0x/1.7x
//! flipping straight back.

use std::os::raw::c_int;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    /// libc `nice(2)`; on Linux it re-prioritises the calling thread only.
    fn nice(inc: c_int) -> c_int;
}

/// Spinners that run until the value is dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spinners = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: `nice` takes and returns plain integers and
                    // touches no memory of ours; a refusal only leaves the
                    // priority as it was.
                    unsafe { nice(19) };
                    // The flag publishes no data: Relaxed is enough.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..4096 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; there is nothing to report.
            let _ = spinner.join();
        }
    }
}
