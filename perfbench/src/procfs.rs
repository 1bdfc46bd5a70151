//! Probes of a process measured from outside, by pid, through `/proc`.

use std::io;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux user ABI).
const USER_HZ: u64 = 100;

/// User plus system CPU time of every thread of `pid`, in nanoseconds
/// (10 ms resolution).
pub fn cpu_ns(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks * (1_000_000_000 / USER_HZ))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad /proc/{pid}/stat")))
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may
/// hold spaces and parentheses, so fields are counted after the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A numeric field of `/proc/<pid>/status` (`VmHWM` in kB, `Threads`).
pub fn status_field(pid: u32, key: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_status_field(&status, key).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("no {key} in /proc/{pid}/status"),
        )
    })
}

fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    Ok(status_field(pid, "VmHWM")? as f64 / 1024.0)
}

/// Current resident set (`VmRSS`) of `pid` in MiB.
pub fn rss_mb(pid: u32) -> io::Result<f64> {
    Ok(status_field(pid, "VmRSS")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_ticks_after_a_hostile_comm() {
        let stat = "4242 (we ird) 1) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 17 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(stat), Some(267));
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t   2048 kB\nThreads:\t5\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_field(status, "Threads"), Some(5));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(cpu_ns(me).is_ok());
        assert!(peak_rss_mb(me).unwrap() > 0.0);
        assert!(rss_mb(me).unwrap() > 0.0);
        assert!(status_field(me, "Threads").unwrap() >= 1);
    }
}
