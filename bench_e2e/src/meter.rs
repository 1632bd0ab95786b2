//! Process meters: CPU time (user + system, all threads) from
//! `/proc/self/stat` and peak resident memory (`VmHWM`) from
//! `/proc/self/status`. Off Linux both read as `None` — absent, never 0.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// the Linux ABI fixes at 100 on every architecture).
pub const USER_HZ: f64 = 100.0;

/// `utime + stime`, in clock ticks, from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name, state is field 3; utime is field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `Key:   1234 kB` line of `/proc/<pid>/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// CPU seconds this process has used so far, all threads; `None` off
/// Linux.
pub fn cpu_seconds() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / USER_HZ)
}

/// Peak resident set size of this process so far, in MiB; `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        // A command name holding spaces and a `)` must not shift fields.
        let stat = "4242 (bench e2e) x) S 1 4242 4242 0 -1 4194560 1200 0 0 0 \
                    731 269 0 0 20 0 9 0 123456 1000000 2500";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 269));
    }

    #[test]
    fn malformed_stat_reads_as_absent() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("12 (short) S 1 2"), None);
        assert_eq!(
            parse_stat_cpu_ticks("12 (x) S 1 2 3 4 5 6 7 8 9 10 utime 5"),
            None
        );
    }

    #[test]
    fn status_reads_the_named_line_only() {
        let status = "Name:\tbench_e2e\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\n\
                      VmRSS:\t   40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn meters_read_this_process_on_linux_only() {
        if cfg!(target_os = "linux") {
            assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        } else {
            assert_eq!(cpu_seconds(), None);
            assert_eq!(peak_rss_mb(), None);
        }
    }
}
