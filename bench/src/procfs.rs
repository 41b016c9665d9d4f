//! Peak resident memory of the harness and the daemons it spawned, from
//! `/proc` (`LocalRing` exposes no pids, so children are found by parent
//! pid).

use std::fs;

/// `VmHWM` of one process, in KiB.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// Parent pid from `/proc/<pid>/stat`; the command name may hold spaces and
/// parentheses, so fields are counted from the last `)`.
fn parent_of(pid: u32) -> Option<u32> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_whitespace().nth(1)?.parse().ok()
}

/// Peak RSS of this process plus that of its live children, in MiB.
pub fn peak_rss_mib() -> f64 {
    let me = std::process::id();
    let children = fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| parent_of(pid) == Some(me));
    let kib: u64 = std::iter::once(me)
        .chain(children)
        .filter_map(vm_hwm_kib)
        .sum();
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable() {
        assert_eq!(
            parent_of(std::process::id()),
            Some(std::os::unix::process::parent_id())
        );
        assert!(peak_rss_mib() > 0.5);
    }
}
