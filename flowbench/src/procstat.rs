//! CPU time of this process's threads by name, from
//! `/proc/self/task/*/{stat,schedstat}`.
//!
//! The server runs in-process, so its `iustitia-reactor` and
//! `iustitia-shard-N` threads and the generator's own threads are all
//! tasks of this process. The kernel truncates a thread name to 15
//! bytes, hence prefix matching.

use std::fs;

/// Kernel clock ticks per second as exposed to user space. Linux fixes
/// `USER_HZ` at 100 on every architecture this runs on; reading it
/// properly needs `sysconf`, which needs `unsafe`.
const NS_PER_TICK: u64 = 1_000_000_000 / 100;

/// Thread name and CPU ticks (user + system) from one `stat` line.
///
/// The name sits in parentheses and may itself contain spaces and
/// parentheses, so the fields after it are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<(&str, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?;
    let mut fields = line.get(close + 1..)?.split_ascii_whitespace();
    // After the name: state ppid pgrp session tty_nr tpgid flags minflt
    // cminflt majflt cmajflt utime stime — utime is the 12th.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((comm, utime + stime))
}

/// On-CPU nanoseconds from a `schedstat` line (its first field).
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// Calls `visit` with the name and CPU nanoseconds so far of every live
/// thread of this process. A thread that exits takes its time with it,
/// so sample while the threads of interest are alive.
///
/// The time is the scheduler's own count from `schedstat` where the
/// kernel keeps one. `stat`'s utime + stime are sampled at the 10 ms tick
/// and miss a thread that runs in bursts shorter than that and sleeps —
/// the generator's reader, for one — so they are only the fallback.
pub fn for_each_thread(mut visit: impl FnMut(&str, u64)) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return };
    for task in tasks.flatten() {
        let Ok(stat) = fs::read_to_string(task.path().join("stat")) else { continue };
        let Some((comm, ticks)) = parse_stat(&stat) else { continue };
        let exact = fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|line| parse_schedstat(&line));
        visit(comm, exact.unwrap_or(ticks * NS_PER_TICK));
    }
}

/// Thread-name prefixes the ledger accounts for.
const REACTOR: &str = "iustitia-reacto";
const SHARDS: &str = "iustitia-shard";
const GENERATOR: &str = "flowbench-";

/// CPU time of the three thread groups at one moment.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    pub reactor_ns: u64,
    pub shards_ns: u64,
    pub generator_ns: u64,
}

impl CpuSample {
    pub fn now() -> CpuSample {
        let mut sample = CpuSample::default();
        for_each_thread(|name, ns| {
            if name.starts_with(REACTOR) {
                sample.reactor_ns += ns;
            } else if name.starts_with(SHARDS) {
                sample.shards_ns += ns;
            } else if name.starts_with(GENERATOR) {
                sample.generator_ns += ns;
            }
        });
        sample
    }

    /// CPU spent since `earlier`.
    pub fn since(&self, earlier: &CpuSample) -> CpuSample {
        CpuSample {
            reactor_ns: self.reactor_ns.saturating_sub(earlier.reactor_ns),
            shards_ns: self.shards_ns.saturating_sub(earlier.shards_ns),
            generator_ns: self.generator_ns.saturating_sub(earlier.generator_ns),
        }
    }

    pub fn add(&mut self, other: &CpuSample) {
        self.reactor_ns += other.reactor_ns;
        self.shards_ns += other.shards_ns;
        self.generator_ns += other.generator_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_thread_name() {
        let line = "4242 (iustitia-shard-) S 1 4242 4242 0 -1 4194368 120 0 0 0 \
                    37 5 0 0 20 0 7 0 123456 1000000 250 18446744073709551615";
        assert_eq!(parse_stat(line), Some(("iustitia-shard-", 42)));
    }

    #[test]
    fn name_with_spaces_and_parentheses() {
        let line = "7 (a (weird) name) R 1 7 7 0 -1 0 0 0 0 0 11 22 0 0 20 0 1 0 5 0 0 0";
        assert_eq!(parse_stat(line), Some(("a (weird) name", 33)));
    }

    #[test]
    fn truncated_or_garbled_lines_are_rejected() {
        assert_eq!(parse_stat(""), None);
        assert_eq!(parse_stat("12 (short) S 1 2 3"), None);
        assert_eq!(parse_stat("12 no-parens S 1 2 3 4 5 6 7 8 9 10 11 12 13"), None);
        assert_eq!(parse_stat("12 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12"), None);
    }

    #[test]
    fn schedstat_first_field_is_the_run_time() {
        assert_eq!(parse_schedstat("54960 741755 2\n"), Some(54960));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn own_named_thread_is_visible() {
        let handle = std::thread::Builder::new()
            .name("flowbench-probe".into())
            .spawn(|| {
                let start = std::time::Instant::now();
                let mut x = 0u64;
                while start.elapsed().as_millis() < 60 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                }
                let mut own = 0;
                for_each_thread(|name, ns| {
                    if name == "flowbench-probe" {
                        own += ns;
                    }
                });
                (own, CpuSample::now().generator_ns)
            })
            .unwrap();
        let (seen, as_generator) = handle.join().unwrap();
        assert!(as_generator >= seen, "flowbench-* threads count as the generator");
        assert!(seen > 0, "a thread spinning for 60 ms has been seen running");
    }
}
