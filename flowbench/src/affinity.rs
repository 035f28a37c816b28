//! Confining a measurement to one CPU.
//!
//! The reference host's vCPUs each run at one of two speeds, a factor of
//! 1.5 apart, and change between them every few seconds to minutes — a
//! neighbour on the sibling hyper-thread, by the look of it. A
//! single-threaded measurement left to the scheduler therefore reads one
//! of two values by luck of placement. Pinned to each CPU in turn, a
//! run's reps sample every CPU equally, whatever the scheduler would
//! have done.
//!
//! Setting a thread's affinity takes `sched_setaffinity`, which takes
//! `unsafe`; the `taskset` of util-linux does it from outside, on one
//! thread id.

use std::process::{Command, Stdio};

/// The CPU numbers of a kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<u32>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(first.parse::<u32>().ok()?..=last.parse().ok()?);
    }
    Some(cpus).filter(|cpus| !cpus.is_empty())
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Result<Vec<u32>, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(parse_cpu_list)
        .ok_or_else(|| "/proc/self/status has no usable Cpus_allowed_list".to_string())
}

/// Hands out the allowed CPUs in turn, one per pinned rep.
pub struct Rota {
    cpus: Vec<u32>,
    next: usize,
}

impl Rota {
    pub fn new() -> Result<Rota, String> {
        Ok(Rota { cpus: allowed_cpus()?, next: 0 })
    }

    pub fn next_cpu(&mut self) -> u32 {
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        cpu
    }
}

/// Confines the calling thread to `cpu`.
fn pin_this_thread(cpu: u32) -> Result<(), String> {
    // "<pid>/task/<tid>"
    let link = std::fs::read_link("/proc/thread-self")
        .map_err(|e| format!("cannot read /proc/thread-self: {e}"))?;
    let tid = link.file_name().and_then(|name| name.to_str()).ok_or("odd /proc/thread-self")?;
    let status = Command::new("taskset")
        .args(["-cp", &cpu.to_string(), tid])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run taskset (util-linux) to pin a thread: {e}"))?;
    if !status.success() {
        return Err(format!("taskset -cp {cpu} {tid}: {status}"));
    }
    Ok(())
}

/// Runs `job` on a new thread confined to `cpu`. Threads that the job
/// starts inherit the confinement: a server started inside runs wholly on
/// that CPU.
pub fn on_cpu<T: Send>(cpu: u32, job: impl FnOnce() -> T + Send) -> Result<T, String> {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(format!("flowbench-cpu{cpu}"))
            .spawn_scoped(scope, move || pin_this_thread(cpu).map(|()| job()))
            .map_err(|e| format!("spawn pinned thread: {e}"))?
            .join()
            .map_err(|_| "a pinned measuring thread panicked".to_string())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("\t0-3,8,10-11"), Some(vec![0, 1, 2, 3, 8, 10, 11]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("0-x"), None);
        assert_eq!(parse_cpu_list("3-2"), None);
    }

    #[test]
    fn rota_takes_the_cpus_in_turn() {
        let mut rota = Rota { cpus: vec![2, 5], next: 0 };
        assert_eq!([rota.next_cpu(), rota.next_cpu(), rota.next_cpu()], [2, 5, 2]);
    }

    #[test]
    fn a_pinned_thread_and_its_children_stay_on_their_cpu() {
        fn allowed_here() -> Option<Vec<u32>> {
            let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .and_then(parse_cpu_list)
        }
        let cpu = *allowed_cpus().unwrap().last().unwrap();
        let (own, child) =
            on_cpu(cpu, || (allowed_here(), std::thread::spawn(allowed_here).join().unwrap()))
                .unwrap();
        assert_eq!(own, Some(vec![cpu]));
        assert_eq!(child, Some(vec![cpu]));
    }
}
