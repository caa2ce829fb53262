//! Process-level counters read from `/proc/self`, and the machine's
//! hypervisor steal time from `/proc/stat`.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Starts a fresh peak-RSS window: hands freed heap memory back to the
/// kernel, then resets `VmHWM` to the current RSS. Each launch then pays
/// for and counts its own memory, whatever earlier launches left cached
/// in the allocator. Best effort: a kernel without `clear_refs` keeps the
/// process-lifetime peak.
pub fn fresh_rss_window() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, only releases free
    // memory of every arena, and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// User plus system CPU time consumed so far by every thread of this
/// process, in seconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("unparsable /proc/self/stat field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Machine-wide CPU time so far, in ticks: `(all, stolen by the
/// hypervisor)`, from the first line of `/proc/stat` (user, nice, system,
/// idle, iowait, irq, softirq, steal; guest time is already in user).
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    let line = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .ok_or("no cpu line in /proc/stat")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().map_err(|e| format!("/proc/stat field {v:?}: {e}")))
        .collect::<Result<_, _>>()?;
    Ok((ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0)))
}

/// Share of machine CPU time stolen by the hypervisor since `since`, a
/// [`cpu_ticks`] snapshot (0 when no tick has passed).
pub fn steal_share(since: (u64, u64)) -> Result<f64, String> {
    let now = cpu_ticks()?;
    let total = now.0.saturating_sub(since.0);
    let stolen = now.1.saturating_sub(since.1);
    Ok(if total == 0 { 0.0 } else { stolen as f64 / total as f64 })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_window_resets_the_peak() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        fresh_rss_window();
        assert!(peak_rss_mib().unwrap() < 60.0, "peak still counts the freed 64 MiB");
    }

    #[test]
    fn steal_share_is_a_share() {
        let snap = cpu_ticks().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!((0.0..=1.0).contains(&steal_share(snap).unwrap()));
    }

    #[test]
    fn counters_are_readable_and_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds().unwrap() >= before);
        assert!(nproc() >= 1);
    }
}
