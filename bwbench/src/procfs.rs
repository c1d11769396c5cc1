//! Process CPU time and peak memory from `/proc` (Linux).

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. The
/// kernel reports them in `USER_HZ`, which is 100 on every Linux
/// architecture this benchmark targets.
const USER_HZ: u64 = 100;

/// `utime + stime`, in clock ticks, from the text of `/proc/<pid>/stat`
/// (summed over all threads of the process).
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) is parenthesised and may itself hold
    // spaces or parentheses, so fields are counted after the last `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name come state (field 3) .. utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set), in KiB, from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(kib)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("bwbench needs Linux {path}: {e}"))
}

/// CPU time this process has used so far, all threads, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let ticks = parse_cpu_ticks(&read("/proc/self/stat")).expect("/proc/self/stat has utime/stime");
    ticks * (1_000_000_000 / USER_HZ)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let kib = parse_vm_hwm_kib(&read("/proc/self/status")).expect("/proc/self/status has VmHWM");
    kib as f64 * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_awkward_command_names() {
        let stat = "4242 (bw bench) (x)) R 1 4242 4242 0 -1 4194304 9001 0 3 0 \
                    1234 56 0 0 20 0 3 0 777 123456789 2048 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_cpu_ticks("4242 (short) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tbwbench\nVmPeak:\t  99999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51_200));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_process_values_are_sane() {
        assert!(peak_rss_mb() > 0.1);
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_ns() >= before, "{x}");
    }
}
