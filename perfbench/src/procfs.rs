//! CPU time and peak memory of a process, read from `/proc/<pid>`.

use std::fs;
use std::io;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 on Linux regardless of the kernel's internal tick rate).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds the process has used, dead threads included.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name (field 2) may hold spaces; fields after it are
    // plain numbers. utime and stime are fields 14 and 15.
    let after_name = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| malformed("stat"))?;
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| malformed("stat"))
    };
    // fields[0] is field 3 (state), so field k sits at index k - 3.
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| malformed("status"))
}

fn malformed(file: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected /proc {file} format"),
    )
}
