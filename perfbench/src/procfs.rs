//! Readers for the few `/proc` files the benchmark needs. Each returns
//! `None` when the file is missing or unreadable: an absent counter is
//! reported as absent, never as 0.
//!
//! `/proc/net/snmp` counts for the whole network namespace, not for this
//! process: its `RcvbufErrors` delta includes any other UDP traffic in the
//! namespace while a run is in progress. `udp_paper` sends over the
//! loopback interface, not a real link.

use std::fs;

/// The two `Udp:` counters of `/proc/net/snmp` the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpCounters {
    /// Datagrams delivered to sockets.
    pub in_datagrams: u64,
    /// Datagrams dropped because a socket's receive buffer was full.
    pub rcvbuf_errors: u64,
}

impl UdpCounters {
    /// Counter growth from `earlier` to `self` (saturating, so a counter
    /// reset reads as no growth).
    pub fn since(self, earlier: UdpCounters) -> UdpCounters {
        UdpCounters {
            in_datagrams: self.in_datagrams.saturating_sub(earlier.in_datagrams),
            rcvbuf_errors: self.rcvbuf_errors.saturating_sub(earlier.rcvbuf_errors),
        }
    }
}

/// Parse the `Udp:` header/value line pair of `/proc/net/snmp`.
pub fn parse_snmp_udp(text: &str) -> Option<UdpCounters> {
    let mut rows = text.lines().filter(|l| l.starts_with("Udp:"));
    let names: Vec<&str> = rows.next()?.split_whitespace().skip(1).collect();
    let values: Vec<&str> = rows.next()?.split_whitespace().skip(1).collect();
    let field = |name: &str| -> Option<u64> {
        let i = names.iter().position(|n| *n == name)?;
        values.get(i)?.parse().ok()
    };
    Some(UdpCounters {
        in_datagrams: field("InDatagrams")?,
        rcvbuf_errors: field("RcvbufErrors")?,
    })
}

/// The namespace's UDP counters now.
pub fn udp_counters() -> Option<UdpCounters> {
    parse_snmp_udp(&fs::read_to_string("/proc/net/snmp").ok()?)
}

/// User plus system CPU clock ticks from a `/proc/<pid>/stat` line. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name come state (field 3) .. utime (14) and stime (15).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `AT_CLKTCK` from a 64-bit `/proc/self/auxv`: the unit of the stat
/// tick counters.
pub fn parse_auxv_clock_ticks(auxv: &[u8]) -> Option<u64> {
    const AT_CLKTCK: u64 = 17;
    auxv.chunks_exact(16).find_map(|pair| {
        let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
        let value = u64::from_ne_bytes(pair[8..].try_into().ok()?);
        (key == AT_CLKTCK && value > 0).then_some(value)
    })
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> Option<f64> {
    let ticks = parse_stat_ticks(&fs::read_to_string("/proc/self/stat").ok()?)?;
    let hz = parse_auxv_clock_ticks(&fs::read("/proc/self/auxv").ok()?)?;
    Some(ticks as f64 / hz as f64)
}

/// A `kB` field of `/proc/self/status`, such as `VmHWM`.
pub fn parse_status_kib(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.split(':').next() == Some(key))?;
    let mut parts = line.split(':').nth(1)?.split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let kib = parse_status_kib(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")?;
    Some(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNMP: &str = "\
Ip: Forwarding DefaultTTL InReceives
Ip: 1 64 2530377
Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors
Udp: 1159682 96 21878 1181778 21878 0 0 0 0
UdpLite: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors
UdpLite: 0 0 0 0 0 0 0 0 0
";

    #[test]
    fn snmp_udp_row_by_column_name() {
        let c = parse_snmp_udp(SNMP).expect("Udp row");
        assert_eq!(
            c,
            UdpCounters {
                in_datagrams: 1_159_682,
                rcvbuf_errors: 21_878
            }
        );
        let later = UdpCounters {
            in_datagrams: 1_169_090,
            rcvbuf_errors: 22_772,
        };
        assert_eq!(
            later.since(c),
            UdpCounters {
                in_datagrams: 9_408,
                rcvbuf_errors: 894
            }
        );
    }

    #[test]
    fn snmp_without_udp_or_column_is_absent() {
        assert_eq!(parse_snmp_udp("Ip: Forwarding\nIp: 1\n"), None);
        assert_eq!(parse_snmp_udp("Udp: InDatagrams\nUdp: 5\n"), None);
        assert_eq!(parse_snmp_udp(""), None);
    }

    #[test]
    fn stat_ticks_survive_odd_command_names() {
        let stat = "13426 (a) b (c)) R 13420 13426 13420 0 -1 4194304 88 0 0 0 \
                    250 31 0 0 20 0 1 0 232308 2568192 288";
        assert_eq!(parse_stat_ticks(stat), Some(281));
        assert_eq!(parse_stat_ticks("13426 (head) R 1 2"), None);
        assert_eq!(parse_stat_ticks(""), None);
    }

    #[test]
    fn auxv_clock_ticks() {
        let mut auxv = Vec::new();
        for (k, v) in [(6u64, 4096u64), (17, 100), (0, 0)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(parse_auxv_clock_ticks(&auxv), Some(100));
        assert_eq!(parse_auxv_clock_ticks(&auxv[..16]), None);
    }

    #[test]
    fn status_peak_rss() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    1696 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(1696));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib("VmHWM:\t12\n", "VmHWM"), None);
    }
}
