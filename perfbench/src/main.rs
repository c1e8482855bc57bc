//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Four closed-loop workloads (one caller, one operation at a time), each
//! through a public entry point:
//!
//! * `sim_paper` — `Scenario::run` on the calibrated two-switch testbed,
//!   500 KB to N=30, all five families: the paper's headline point.
//! * `sim_n1000` — the same at N=1000, ACK and NAK-polling only: netsim
//!   fan-out and ACK implosion into the sender.
//! * `engine_loopback` — the five families' `Sender`/`Receiver` driven by
//!   this benchmark's own in-memory loop, 500 KB to 8 receivers with 1 %
//!   seeded per-copy loss: engine and codec only.
//! * `udp_paper` — `run_cluster` over loopback UDP sockets, NAK-polling,
//!   8 KB packets, window 20, N=2, 20 × 500 KB: udprun and the kernel.
//!
//! The seed makes the inputs: simulation and receiver seeds, payload
//! bytes and loss patterns. A run sets up [`SETUP_REPS`] times, then
//! repeats its fixed pass for `--seconds` and reports medians.
//!
//! With `--trace 0` the last stdout line carries every metric of
//! [`END_TO_END`]; with `--trace 1`, every metric of [`PER_LAYER`], from
//! a separate traced phase whose timing wrappers sit around the calls
//! into each layer (see [`timing`]). A layer a workload does not run
//! reads 0; a `/proc` value that cannot be read is left out.
//!
//! End-to-end metrics, on every workload:
//!
//! * `setup_s` — median of the set-ups: inputs, drivers, untimed warm-up.
//! * `wall_s` — median host seconds of one pass; output checks excluded.
//! * `op_p50_ms`, `op_p90_ms` — host time per operation: one scenario
//!   run (sims), one transfer (`engine_loopback`), one `run_cluster`
//!   call (`udp_paper`). Each run prints its sample count.
//! * `pkts_per_s` — engine datagrams handled (sender data, retransmits,
//!   ACKs and NAKs received; receiver data received, ACKs and NAKs sent)
//!   per second of transfer: host time, or `ClusterResult::elapsed`.
//! * `goodput_mbps` — payload Mbit delivered per receiver per second of
//!   transfer, over the same clock.
//! * `peak_rss_mb` — `VmHWM` after set-up and the first pass.
//! * `delivered_frac` — deliveries present and byte-identical, over those
//!   attempted (1 − the failed share).
//! * `sim_comm_ms.<family>` — the calibrated simulator's 500 KB
//!   communication time at the workload's N, median over the run's seeds;
//!   families a workload does not time are simulated untimed at `--seed`.

mod engine;
mod procfs;
mod report;
mod sims;
mod timing;
mod udp;

use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// End-to-end metrics and their units, as `BENCHMARK.json` declares them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("pkts_per_s", "1/s"),
    ("goodput_mbps", "Mbit/s"),
    ("peak_rss_mb", "MiB"),
    ("delivered_frac", "share"),
    ("sim_comm_ms.ack", "ms"),
    ("sim_comm_ms.nak", "ms"),
    ("sim_comm_ms.ring", "ms"),
    ("sim_comm_ms.tree", "ms"),
    ("sim_comm_ms.fec", "ms"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` declares them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.self_s", "s"),
    ("netsim.share", "share"),
    ("netsim.callbacks", "count"),
    ("netsim.ns_per_callback", "ns"),
    ("netsim.frames_sent", "count"),
    ("netsim.datagrams_delivered", "count"),
    ("netsim.drops_switch_queue", "count"),
    ("netsim.drops_sockbuf", "count"),
    ("simrun.self_s", "s"),
    ("simrun.share", "share"),
    ("rmcast.sender.self_s", "s"),
    ("rmcast.sender.share", "share"),
    ("rmcast.sender.calls", "count"),
    ("rmcast.sender.ns_per_call", "ns"),
    ("rmcast.receiver.self_s", "s"),
    ("rmcast.receiver.share", "share"),
    ("rmcast.receiver.calls", "count"),
    ("rmcast.receiver.ns_per_call", "ns"),
    ("rmcast.packet.parse_ns", "ns"),
    ("rmcast.packet.share", "share"),
    ("rmcast.data_sent", "count"),
    ("rmcast.retx_sent", "count"),
    ("rmcast.retx_per_data", "ratio"),
    ("rmcast.acks_received", "count"),
    ("rmcast.naks_received", "count"),
    ("rmcast.timeouts", "count"),
    ("rmcast.window_shrinks", "count"),
    ("rmcast.user_copy_bytes", "bytes"),
    ("rmcast.peak_buffer_bytes", "bytes"),
    ("udprun.call_overhead_s", "s"),
    ("udprun.cpu_s", "s"),
    ("udprun.cpu_util", "ratio"),
    ("udprun.tx_s", "s"),
    ("udprun.rx_s", "s"),
    ("kernel.rcvbuf_errors", "count"),
    ("kernel.in_datagrams", "count"),
    ("kernel.rcvbuf_drop_frac", "share"),
    ("driver.self_s", "s"),
    ("driver.share", "share"),
    ("unattributed.share", "share"),
    ("trace_overhead", "ratio"),
];

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Bring the allocator to the state a long-lived process settles in.
/// glibc serves blocks above its mmap threshold (128 KiB at start) with
/// fresh mappings, and raises the threshold, and with it the heap trim
/// threshold, only when it frees such a block. Whether a run happens to
/// free one depends on its inputs, and the two states differ up to 2.5×
/// on `engine_loopback`, whose 500 KB buffers are otherwise trimmed from
/// the heap and faulted back in on every transfer. The thresholds only
/// ever rise, so freeing one 16 MiB block here measures every run in
/// the state a long life reaches anyway.
fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(16 << 20)));
}

fn main() {
    let start = Instant::now();
    settle_allocator();
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    let mut report = match args.workload.as_str() {
        "sim_paper" => sims::run(&sims::PAPER, &args, start),
        "sim_n1000" => sims::run(&sims::N1000, &args, start),
        "engine_loopback" => engine::run(&args, start),
        "udp_paper" => udp::run(&args, start),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let order = if args.trace {
        report.zero_unset(PER_LAYER);
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", report.to_json(order));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line() {
        let a = parse("--workload sim_paper --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_paper", 7, 10.0, true)
        );
        assert!(parse("--workload sim_paper --seed 7 --seconds 10").is_err());
        assert!(parse("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 0 --extra").is_err());
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        for n in all {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
