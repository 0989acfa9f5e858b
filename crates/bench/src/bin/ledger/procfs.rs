//! What the kernel knows about the program under test and the machine:
//! CPU time and peak memory of a process, the machine-wide steal
//! counter, and the fingerprint every result carries.

use std::path::Path;

use crate::json::Json;

/// `USER_HZ`: the unit of the tick counters in `/proc`. Fixed at 100 on
/// every Linux ABI this workspace builds for (the value is part of the
/// userspace ABI, not the kernel's `CONFIG_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// The aggregate `cpu` line of `/proc/stat`, in ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time the hypervisor ran something else while a vCPU was runnable.
    pub steal: u64,
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
}

impl CpuTimes {
    /// Share of the machine's CPU time stolen between `earlier` and
    /// `self` (0 when no tick elapsed).
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parse the first (`cpu `) line of `/proc/stat`. Guest time is already
/// included in user/nice, so only the first eight fields are summed.
pub fn parse_cpu_line(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        steal: fields[7],
        total: fields.iter().sum(),
    })
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// ticks. The command name may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_pid_stat_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // after_comm starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Key:   <n> kB` line of `/proc/<pid>/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn cpu_times() -> Result<CpuTimes, String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    parse_cpu_line(&text).ok_or_else(|| "/proc/stat has no aggregate cpu line".to_string())
}

/// CPU seconds (user + system, all threads) process `pid` has used.
pub fn process_cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_pid_stat_ticks(&text)
        .map(|t| t as f64 / TICKS_PER_SECOND)
        .ok_or_else(|| format!("{path}: unexpected format"))
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn process_peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_status_kb(&text, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// The commit a `.git` directory points at, read without spawning git
/// (the driver's checkout is not a repository: then `unknown`).
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine fingerprint every result carries: numbers from two
/// machines (or two GF(2^8) kernels) must never be compared unawares.
pub fn fingerprint(root: &Path) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "erasure_kernel",
            Json::from(hcft_erasure::kernel::active().name()),
        ),
        ("git_sha", Json::Str(git_sha(root))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  43503 0 67177 248885 19468 0 4641 120027 0 0\n\
                        cpu0 21698 0 34474 125709 11535 0 926 56508 0 0\n\
                        intr 1 2 3\n";

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let t = parse_cpu_line(STAT).unwrap();
        assert_eq!(t.steal, 120_027);
        assert_eq!(
            t.total,
            43_503 + 67_177 + 248_885 + 19_468 + 4_641 + 120_027
        );
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_cpu_line("cpu  1 2 3\n"), None);
    }

    #[test]
    fn steal_share_is_a_delta_ratio() {
        let a = CpuTimes {
            steal: 100,
            total: 1_000,
        };
        let b = CpuTimes {
            steal: 150,
            total: 1_200,
        };
        assert_eq!(b.steal_share_since(&a), 0.25);
        assert_eq!(a.steal_share_since(&a), 0.0);
    }

    #[test]
    fn pid_stat_survives_hostile_command_names() {
        let line = "4242 (repro) serve) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    731 269 0 0 20 0 7 0 12345 1000000 500 18446744073709551615 0 0";
        assert_eq!(parse_pid_stat_ticks(line), Some(1_000));
        assert_eq!(parse_pid_stat_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_pid_stat_ticks("garbage"), None);
    }

    #[test]
    fn status_keys_are_matched_exactly() {
        let status = "Name:\trepro\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1_000));
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(process_cpu_seconds(pid).unwrap() >= 0.0);
        assert!(process_peak_rss_mb(pid).unwrap() > 0.0);
        assert!(cpu_times().unwrap().total > 0);
    }
}
