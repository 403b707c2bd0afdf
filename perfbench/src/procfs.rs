//! Reads process CPU time and peak memory from `/proc`, and the host
//! facts every report starts with.

use std::path::Path;

/// Clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// exported `USER_HZ = 100` to user space on every architecture it
/// supports, independent of the kernel's internal tick rate.
const TICKS_PER_S: f64 = 100.0;

/// CPU time fields of one `/proc/<pid>/stat` line, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    /// `utime + stime` of the process itself.
    pub own_s: f64,
    /// `cutime + cstime`: the children this process has waited for.
    pub children_s: f64,
}

/// Parses a `/proc/<pid>/stat` line. The second field (the command name)
/// is parenthesised and may itself contain spaces and parentheses, so
/// the numeric fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    // After the name come field 3 (state) onwards; utime is field 14.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let num = |field: usize| -> Option<f64> { fields.get(field - 3)?.parse::<u64>().ok().map(|t| t as f64) };
    Some(CpuTimes {
        own_s: (num(14)? + num(15)?) / TICKS_PER_S,
        children_s: (num(16)? + num(17)?) / TICKS_PER_S,
    })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in MiB. `None` when the line is absent — as it is for a process that
/// has already exited.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// CPU times of process `pid` (`"self"` for this process).
pub fn cpu_times(pid: &str) -> Option<CpuTimes> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of process `pid`, MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// The host block printed at the head of every report.
pub fn host_block(root: &Path) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    vec![
        ("nproc".to_string(), nproc.to_string()),
        ("kernel".to_string(), format!("{:?}", srs_search::colocate::dispatch())),
        ("l3".to_string(), l3),
        ("rustc".to_string(), rustc),
        ("commit".to_string(), commit),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        // A command name with a space and a ')' must not shift fields.
        let line = "4242 (srs (x) y) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    250 50 30 20 20 0 3 0 100 1000 200 18446744073709551615";
        let t = parse_stat(line).unwrap();
        assert_eq!(t.own_s, 3.0);
        assert_eq!(t.children_s, 0.5);
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat("4242 (srs) S 1 2 3"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn own_stat_parses() {
        let t = cpu_times("self").expect("/proc/self/stat is readable");
        assert!(t.own_s >= 0.0 && t.children_s >= 0.0);
    }

    #[test]
    fn vm_hwm_in_mib() {
        let status = "Name:\tsrs\nVmPeak:\t  20480 kB\nVmHWM:\t    3072 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(3.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tsrs\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert!(vm_hwm_mb(std::process::id()).unwrap() > 0.0);
    }
}
