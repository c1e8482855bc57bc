//! `udp_paper`: `run_cluster` over real loopback sockets at the paper's
//! packet size and window. Today this collapses into timeout-driven
//! recovery (receive-buffer overflow, then 120 ms RTOs), and the
//! workload is sized by message count so that it still runs long enough
//! to be steady once that is fixed.

use crate::engine::payload;
use crate::report::{self, median, repeat_within, secs, Passes, Report};
use crate::sims::{self, engine_datagrams, Family, MSG_BYTES};
use crate::{procfs, Args, SETUP_REPS};
use bytes::Bytes;
use rmcast::Stats;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use udprun::cluster::{run_cluster, ClusterConfig, ClusterResult};

/// Receivers: with the hub and the sender, four node threads.
const N: u16 = 2;
/// Messages per `run_cluster` call.
const MSGS: u64 = 20;
/// A hung call fails after this long, well inside the run's time limit.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);

fn config(seed: u64, profile: bool) -> ClusterConfig {
    let mut c = ClusterConfig::new(Family::Nak.config(N), N);
    c.seed = seed;
    c.timeout = CALL_TIMEOUT;
    c.profile = profile;
    c
}

/// One `run_cluster` call with its host wall time.
struct Call {
    wall_s: f64,
    result: ClusterResult,
}

fn call(cfg: ClusterConfig, msgs: &[Bytes], r: &mut Report) -> Option<Call> {
    let t = Instant::now();
    let res = run_cluster(cfg, msgs.to_vec());
    let wall_s = secs(t);
    let attempted = u64::from(N) * msgs.len() as u64;
    match res {
        Ok(result) => {
            check(r, msgs, &result);
            Some(Call { wall_s, result })
        }
        Err(e) => {
            r.problem(format!("run_cluster: {e}"));
            r.deliveries(attempted, attempted);
            None
        }
    }
}

/// Every receiver delivers every message exactly once, byte-identical.
fn check(r: &mut Report, msgs: &[Bytes], res: &ClusterResult) {
    let attempted = u64::from(N) * msgs.len() as u64;
    let mut good = BTreeSet::new();
    for (rank, msg_id, data) in &res.deliveries {
        let ok = msgs.get(*msg_id as usize).is_some_and(|m| m == data)
            && (1..=N).contains(&rank.0)
            && good.insert((rank.0, *msg_id));
        if !ok {
            r.problem(format!(
                "receiver {} delivered message {msg_id} wrongly",
                rank.0
            ));
        }
    }
    r.deliveries(attempted, attempted - good.len() as u64);
    if !res.failures.is_empty() {
        r.problem(format!("session failures: {:?}", res.failures));
    }
}

fn handled(res: &ClusterResult) -> u64 {
    let receivers: Vec<&Stats> = res.receiver_stats.values().collect();
    engine_datagrams(&res.sender_stats, &receivers)
}

pub fn run(args: &Args, start: Instant) -> Report {
    let mut r = Report::default();
    let (msgs, setup_s) = report::setup(start, SETUP_REPS, || {
        let msgs: Vec<Bytes> = (0..MSGS)
            .map(|i| payload(args.seed, i, MSG_BYTES))
            .collect();
        // Untimed warm-up: one small message through the same cluster
        // (threads, sockets, hub), far below the collapse.
        let warm = run_cluster(
            config(args.seed, false),
            vec![payload(args.seed, MSGS, 8_000)],
        );
        if let Err(e) = warm {
            eprintln!("perfbench: warm-up run_cluster failed: {e}");
        }
        msgs
    });
    if args.trace {
        traced(args, &msgs, &mut r);
        return r;
    }

    let mut passes = Passes::default();
    repeat_within(Instant::now(), args.seconds, 1, || {
        if let Some(c) = call(config(args.seed, false), &msgs, &mut r) {
            let bits = (MSGS as usize * MSG_BYTES * 8) as f64;
            let elapsed = c.result.elapsed.as_secs_f64();
            passes.record(&[c.wall_s], elapsed, handled(&c.result), bits);
        }
    });
    if passes.is_empty() {
        return r;
    }
    passes.report(&mut r, setup_s, "run_cluster calls");
    sims::report_sim_comm(&mut r, N, args.seed, &[]);
    r
}

/// Untraced calls for half the time, then calls with rmprof span timing
/// on. The rmprof registry is process-global, so it is reset first and
/// nothing else runs beside the traced calls.
fn traced(args: &Args, msgs: &[Bytes], r: &mut Report) {
    let measure = Instant::now();
    let mut untraced_s = Vec::new();
    repeat_within(measure, args.seconds / 2.0, 1, || {
        if let Some(c) = call(config(args.seed, false), msgs, r) {
            untraced_s.push(c.wall_s);
        }
    });

    rmprof::reset();
    let udp_before = procfs::udp_counters();
    let cpu_before = procfs::cpu_seconds();
    let mut traced_s = Vec::new();
    let mut elapsed_s = 0.0;
    let mut stats = Stats::default();
    repeat_within(measure, args.seconds, 1, || {
        if let Some(c) = call(config(args.seed, true), msgs, r) {
            traced_s.push(c.wall_s);
            elapsed_s += c.result.elapsed.as_secs_f64();
            stats.merge(&c.result.sender_stats);
        }
    });
    let cpu_after = procfs::cpu_seconds();
    let udp_after = procfs::udp_counters();
    let snap = rmprof::snapshot();
    let calls = traced_s.len();
    if calls == 0 || untraced_s.is_empty() {
        return;
    }
    let per = |v: f64| v / calls as f64;
    let wall: f64 = traced_s.iter().sum();

    crate::engine::stats_metrics(r, &stats, calls);
    r.metric("udprun.call_overhead_s", per(wall - elapsed_s));
    match (cpu_before, cpu_after) {
        (Some(a), Some(b)) => {
            r.metric("udprun.cpu_s", per(b - a));
            r.metric("udprun.cpu_util", (b - a) / elapsed_s);
        }
        _ => {
            r.absent("udprun.cpu_s", "/proc/self/stat");
            r.absent("udprun.cpu_util", "/proc/self/stat");
        }
    }
    let stage_s = |name: &str| snap.stage(name).map_or(0.0, |h| h.sum() as f64 / 1e9);
    r.metric("udprun.tx_s", per(stage_s("udprun.tx")));
    r.metric("udprun.rx_s", per(stage_s("udprun.rx")));
    match (udp_before, udp_after) {
        (Some(a), Some(b)) => {
            let d = b.since(a);
            let arrived = (d.in_datagrams + d.rcvbuf_errors).max(1) as f64;
            r.metric("kernel.rcvbuf_errors", per(d.rcvbuf_errors as f64));
            r.metric("kernel.in_datagrams", per(d.in_datagrams as f64));
            r.metric("kernel.rcvbuf_drop_frac", d.rcvbuf_errors as f64 / arrived);
        }
        _ => {
            for name in [
                "kernel.rcvbuf_errors",
                "kernel.in_datagrams",
                "kernel.rcvbuf_drop_frac",
            ] {
                r.absent(name, "/proc/net/snmp");
            }
        }
    }
    // No layer clock reaches inside the node threads: the whole call is
    // unattributed.
    r.metric("unattributed.share", 1.0);
    r.metric(
        "trace_overhead",
        median(&mut traced_s) / median(&mut untraced_s) - 1.0,
    );
}
