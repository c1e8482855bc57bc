//! `sim_paper` and `sim_n1000`: the calibrated simulator through
//! `Scenario::run`, and a traced replica of the same run assembled from
//! simrun's public parts.

use crate::report::{self, median, repeat_within, secs, Passes, Report};
use crate::timing::{Capture, Clock, CtxGaps, TimedEndpoint, TimedProcess};
use crate::{Args, SETUP_REPS};
use netsim::{topology, HostId, Sim, TraceCounters};
use rmcast::{GroupSpec, ProtocolConfig, ProtocolKind, Receiver, Sender, Stats};
use rmwire::{Duration, Rank, Time};
use simrun::adapter::{AddrMap, Launch, NodeProcess, NodeRole, Recorder, SharedRecorder};
use simrun::scenario::{Protocol, RunResult, Scenario};
use simrun::CostModel;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The paper's message: 500 KB.
pub const MSG_BYTES: usize = 500_000;
/// Data bytes per packet, as in `perf_record`.
const PACKET: usize = 8_000;
/// Window in packets, as in `perf_record`.
const WINDOW: usize = 20;
/// The port `Scenario::run` binds every endpoint to.
const PORT: u16 = 5000;

/// The five protocol families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Ack,
    Nak,
    Ring,
    Tree,
    Fec,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::Ack,
        Family::Nak,
        Family::Ring,
        Family::Tree,
        Family::Fec,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Ack => "ack",
            Family::Nak => "nak",
            Family::Ring => "ring",
            Family::Tree => "tree",
            Family::Fec => "fec",
        }
    }

    /// `perf_record`'s configuration for `n` receivers. Two limits of
    /// `ProtocolConfig::validate` shape it: ring rejects a window of N or
    /// less (an ACK for packet X only releases X − N), so its window is
    /// N + 5 when that exceeds 20 (35 at the paper's N=30); NAK-polling
    /// and fec with poll interval 16 reject windows below 16.
    pub fn config(self, n: u16) -> ProtocolConfig {
        let kind = match self {
            Family::Ack => ProtocolKind::Ack,
            Family::Nak => ProtocolKind::nak_polling(16),
            Family::Ring => ProtocolKind::Ring,
            Family::Tree => ProtocolKind::flat_tree(2),
            Family::Fec => ProtocolKind::fec(16),
        };
        let window = match self {
            Family::Ring => (usize::from(n) + 5).max(WINDOW),
            _ => WINDOW,
        };
        ProtocolConfig::new(kind, PACKET, window)
    }
}

/// One simulated workload.
pub struct SimWorkload {
    /// Receivers.
    pub n: u16,
    /// Families timed in every pass.
    pub families: &'static [Family],
    /// Simulation seeds per run: pass `p` uses `--seed + p % seeds`, and
    /// `sim_comm_ms` is the median over all of them.
    pub seeds: u64,
}

/// The paper's headline point: 500 KB to 30 receivers, every family.
pub const PAPER: SimWorkload = SimWorkload {
    n: 30,
    families: &Family::ALL,
    seeds: 1,
};

/// ROADMAP item 2's scaling point: N=1000, ACK and NAK-polling. ACK here
/// recovers switch-queue drops by timeout, and about one seed in six
/// needs an extra RTO round (2.53 s of simulated time instead of
/// 2.11–2.19 s, and 18 % more ACKs), so each run spans three seeds.
pub const N1000: SimWorkload = SimWorkload {
    n: 1000,
    families: &[Family::Ack, Family::Nak],
    seeds: 3,
};

fn scenario(family: Family, n: u16) -> Scenario {
    Scenario::new(Protocol::Rm(family.config(n)), n, MSG_BYTES)
}

/// Engine datagrams handled: the sender's sends and receipts plus every
/// receiver's.
pub fn engine_datagrams(sender: &Stats, receivers: &[&Stats]) -> u64 {
    sender.data_sent
        + sender.retx_sent
        + sender.acks_received
        + sender.naks_received
        + receivers
            .iter()
            .map(|r| r.data_received + r.acks_sent + r.naks_sent)
            .sum::<u64>()
}

/// Report `sim_comm_ms.<family>`, the calibrated simulator's 500 KB
/// communication time, for every family: from `measured` where the timed
/// passes ran the family, otherwise simulated now (untimed) at `n`
/// receivers, so that every workload reports every family.
pub fn report_sim_comm(r: &mut Report, n: u16, seed: u64, measured: &[(Family, f64)]) {
    for f in Family::ALL {
        let ms = match measured.iter().find(|(m, _)| *m == f) {
            Some((_, ms)) => *ms,
            None => scenario(f, n).run(seed).comm_time.as_secs_f64() * 1e3,
        };
        r.metric(&format!("sim_comm_ms.{}", f.name()), ms);
    }
}

/// Count one `Scenario::run`'s deliveries against its `n` receivers.
fn check_run(r: &mut Report, family: Family, n: u16, run: &RunResult) {
    let expected = u64::from(n);
    let got = run.deliveries as u64;
    r.deliveries(expected, expected.saturating_sub(got));
    if got > expected {
        r.problem(format!(
            "{}: {got} deliveries for {expected} receivers",
            family.name()
        ));
    }
}

pub fn run(w: &SimWorkload, args: &Args, start: Instant) -> Report {
    let mut r = Report::default();
    let (scenarios, setup_s) = report::setup(start, SETUP_REPS, || {
        let scenarios: Vec<(Family, Scenario)> =
            w.families.iter().map(|&f| (f, scenario(f, w.n))).collect();
        // Untimed warm-up: one paper-point run, so allocator and page
        // faults of a first run stay out of the timed passes.
        let warm = scenario(w.families[0], w.n.min(30)).run(args.seed);
        std::hint::black_box(warm.comm_time);
        scenarios
    });
    if args.trace {
        traced(w, args, &scenarios, &mut r);
        return r;
    }

    let seeds: Vec<u64> = (0..w.seeds).map(|k| args.seed.wrapping_add(k)).collect();
    let mut passes = Passes::default();
    let mut comm: Vec<(Family, u64, Duration)> = Vec::new();
    let mut index = 0;
    repeat_within(Instant::now(), args.seconds, 1, || {
        let seed = seeds[index % seeds.len()];
        index += 1;
        let (op_s, runs) = untraced_pass(&scenarios, seed);
        let mut pkts = 0;
        for ((f, _), run) in scenarios.iter().zip(&runs) {
            check_run(&mut r, *f, w.n, run);
            let receivers: Vec<&Stats> = run.receiver_stats.iter().collect();
            pkts += engine_datagrams(&run.sender_stats, &receivers);
            // A seed's simulated time must repeat in every pass.
            match comm.iter().find(|(m, sd, _)| m == f && *sd == seed) {
                None => comm.push((*f, seed, run.comm_time)),
                Some((_, _, c)) if *c != run.comm_time => r.problem(format!(
                    "{}: seed {seed} gave {c} then {}",
                    f.name(),
                    run.comm_time
                )),
                Some(_) => {}
            }
        }
        let bits = (scenarios.len() * MSG_BYTES * 8) as f64;
        passes.record(&op_s, op_s.iter().sum(), pkts, bits);
    });
    passes.report(&mut r, setup_s, "scenario runs");
    // Seeds no timed pass reached are simulated now, so the result does
    // not depend on how many passes fit.
    let measured: Vec<(Family, f64)> = scenarios
        .iter()
        .map(|(f, sc)| {
            let mut ms: Vec<f64> = seeds
                .iter()
                .map(
                    |&seed| match comm.iter().find(|(m, sd, _)| m == f && *sd == seed) {
                        Some((_, _, c)) => *c,
                        None => sc.run(seed).comm_time,
                    },
                )
                .map(|c| c.as_secs_f64() * 1e3)
                .collect();
            (*f, median(&mut ms))
        })
        .collect();
    report_sim_comm(&mut r, w.n, args.seed, &measured);
    r
}

/// One `Scenario::run` per family: the seconds each took, and results.
fn untraced_pass(scenarios: &[(Family, Scenario)], seed: u64) -> (Vec<f64>, Vec<RunResult>) {
    scenarios
        .iter()
        .map(|(_, sc)| {
            let t = Instant::now();
            let run = sc.run(seed);
            (secs(t), run)
        })
        .unzip()
}

/// Layer clocks of the traced passes, shared by every run in them.
#[derive(Default)]
struct Layers {
    /// Each `Process` callback of every node.
    callbacks: Rc<Clock>,
    /// The adapter's `Ctx` calls inside those callbacks.
    ctx: Rc<Clock>,
    /// The sender's endpoint calls.
    sender: Rc<Clock>,
    /// Every receiver's endpoint calls.
    receiver: Rc<Clock>,
    /// Inside `Sim::run_until`.
    run_ns: u64,
    /// The replica's own set-up and collection around `run_until`.
    driver_ns: u64,
}

/// What a replica run produced, in `Scenario::run`'s terms.
struct Replica {
    comm_time: Option<Duration>,
    trace: TraceCounters,
    sender_stats: Stats,
    receiver_stats: Vec<Stats>,
    /// `(rank, msg_id, crc32c)` of every delivered payload.
    crcs: Vec<(Rank, u64, u32)>,
}

/// What every timed node of a replica shares.
struct Wiring {
    addr: Rc<AddrMap>,
    cost: CostModel,
    rec: SharedRecorder,
    callbacks: Rc<Clock>,
    ctx: Rc<Clock>,
}

impl Wiring {
    /// Spawn `ep` on `host` inside `NodeProcess`, with the endpoint timed
    /// into `clock` and the process into the callback clock.
    fn spawn<E: Launch + 'static>(
        &self,
        sim: &mut Sim,
        host: HostId,
        ep: E,
        clock: &Rc<Clock>,
        cap: Option<&Capture>,
        role: NodeRole,
    ) {
        let gaps = CtxGaps::new(Rc::clone(&self.ctx));
        let ep = TimedEndpoint::new(ep, Rc::clone(clock), cap.cloned(), Some(Rc::clone(&gaps)));
        let node = NodeProcess::new(
            ep,
            role,
            Rc::clone(&self.addr),
            self.cost,
            Rc::clone(&self.rec),
        );
        let node = TimedProcess::new(node, Rc::clone(&self.callbacks), gaps);
        sim.spawn(host, PORT, Box::new(node));
    }
}

/// `Scenario::execute` for a clean two-switch run of one protocol,
/// rebuilt from public parts with every process and endpoint timed.
fn replica(
    sc: &Scenario,
    cfg: ProtocolConfig,
    seed: u64,
    l: &mut Layers,
    cap: Option<&Capture>,
) -> Replica {
    let op = Instant::now();
    let mut sim = Sim::new(sc.sim, seed);
    let n = usize::from(sc.n_receivers);
    let hosts = topology::two_switch_cluster(&mut sim, n + 1);
    let receiver_hosts = hosts[1..=n].to_vec();
    let group = sim.create_group(&receiver_hosts);
    let addr = Rc::new(AddrMap {
        sender_host: hosts[0],
        receiver_hosts: receiver_hosts.clone(),
        group,
        port: PORT,
    });
    let rec: SharedRecorder = Rc::new(RefCell::new(Recorder {
        expect_msgs: 1,
        ..Recorder::default()
    }));
    let gspec = GroupSpec::new(sc.n_receivers);
    let wiring = Wiring {
        addr,
        cost: sc.cost,
        rec: Rc::clone(&rec),
        callbacks: Rc::clone(&l.callbacks),
        ctx: Rc::clone(&l.ctx),
    };
    let msgs = vec![sc.payload()];
    let sender = Sender::new(cfg, gspec);
    wiring.spawn(
        &mut sim,
        hosts[0],
        sender,
        &l.sender,
        cap,
        NodeRole::Sender { msgs },
    );
    for (i, &h) in receiver_hosts.iter().enumerate() {
        let receiver = Receiver::new(cfg, gspec, Rank::from_receiver_index(i), seed);
        wiring.spawn(
            &mut sim,
            h,
            receiver,
            &l.receiver,
            cap,
            NodeRole::Receiver { index: i },
        );
    }
    drop(wiring);
    let built = Instant::now();
    sim.run_until(Time::ZERO + sc.time_cap);
    let ran = Instant::now();
    let trace = sim.trace().clone();
    drop(sim);
    let rec = Rc::try_unwrap(rec)
        .map(RefCell::into_inner)
        .unwrap_or_else(|_| panic!("the dropped simulation held the only other recorder handle"));
    let out = Replica {
        comm_time: rec.sender_done.map(|t| t.saturating_since(Time::ZERO)),
        trace,
        sender_stats: rec.sender_stats,
        receiver_stats: rec.receiver_stats,
        crcs: rec.delivery_crcs,
    };
    let done = Instant::now();
    l.run_ns += (ran - built).as_nanos() as u64;
    l.driver_ns += ((built - op) + (done - ran)).as_nanos() as u64;
    out
}

/// The traced run: untraced `Scenario::run` passes for half the time,
/// then traced replica passes whose results must match them bit for bit,
/// then one replica pass that keeps its datagrams for the codec replay
/// (kept apart so the retained buffers cannot change the timed passes).
fn traced(w: &SimWorkload, args: &Args, scenarios: &[(Family, Scenario)], r: &mut Report) {
    let measure = Instant::now();
    let mut untraced_s = Vec::new();
    let mut reference: Vec<RunResult> = Vec::new();
    repeat_within(measure, args.seconds / 2.0, 1, || {
        let (op_s, runs) = untraced_pass(scenarios, args.seed);
        untraced_s.push(op_s.iter().sum::<f64>());
        reference = runs;
    });
    for ((f, _), run) in scenarios.iter().zip(&reference) {
        check_run(r, *f, w.n, run);
    }

    let mut l = Layers::default();
    let mut counters = TraceCounters::default();
    let mut stats = Stats::default();
    let mut op_s = Vec::new();
    let mut pass_s = 0.0;
    let passes = repeat_within(measure, args.seconds, 1, || {
        let pass = Instant::now();
        let before = l.run_ns + l.driver_ns;
        for ((f, sc), want) in scenarios.iter().zip(&reference) {
            let got = replica(sc, f.config(w.n), args.seed, &mut l, None);
            check_replica(r, *f, sc, want, &got);
            add_counters(&mut counters, &got.trace);
            stats.merge(&got.sender_stats);
        }
        op_s.push((l.run_ns + l.driver_ns - before) as f64 / 1e9);
        pass_s += secs(pass);
    });
    let cap = Capture::default();
    for (f, sc) in scenarios {
        replica(
            sc,
            f.config(w.n),
            args.seed,
            &mut Layers::default(),
            Some(&cap),
        );
    }
    let per_pass = |v: f64| v / passes as f64;

    // Shares are of the traced passes' wall time; what no clock covers
    // (the benchmark's checks between runs) is unattributed.
    let wall = pass_s * 1e9;
    let callbacks = l.callbacks.ns() as f64;
    let ctx = l.ctx.ns() as f64;
    let engine = (l.sender.ns() + l.receiver.ns()) as f64;
    let driver = l.driver_ns as f64;
    let netsim = l.run_ns as f64 - callbacks + ctx;
    let simrun = callbacks - ctx - engine;
    let unattributed = wall - l.run_ns as f64 - driver;
    let shares = [netsim, simrun, engine, driver, unattributed].map(|ns| ns / wall);
    let sum: f64 = shares.iter().sum();
    if (sum - 1.0).abs() > 0.05 || shares.iter().any(|s| *s < -0.01) {
        r.problem(format!("layer shares {shares:?} do not add up to 1"));
    }
    let calls = l.callbacks.calls();

    r.metric("netsim.self_s", per_pass(netsim) / 1e9);
    r.metric("netsim.share", shares[0]);
    r.metric("netsim.callbacks", per_pass(calls as f64));
    r.metric("netsim.ns_per_callback", netsim / calls.max(1) as f64);
    r.metric("netsim.frames_sent", per_pass(counters.frames_sent as f64));
    r.metric(
        "netsim.datagrams_delivered",
        per_pass(counters.datagrams_delivered as f64),
    );
    r.metric(
        "netsim.drops_switch_queue",
        per_pass(counters.drops_switch_queue as f64),
    );
    r.metric(
        "netsim.drops_sockbuf",
        per_pass(counters.drops_sockbuf as f64),
    );
    r.metric("simrun.self_s", per_pass(simrun) / 1e9);
    r.metric("simrun.share", shares[1]);
    crate::engine::engine_layer_metrics(r, &l.sender, &l.receiver, passes, wall, &cap.borrow());
    crate::engine::stats_metrics(r, &stats, passes);
    r.metric("driver.self_s", per_pass(driver) / 1e9);
    r.metric("driver.share", shares[3]);
    r.metric("unattributed.share", shares[4]);
    r.metric(
        "trace_overhead",
        median(&mut op_s) / median(&mut untraced_s) - 1.0,
    );
}

fn add_counters(total: &mut TraceCounters, run: &TraceCounters) {
    total.frames_sent += run.frames_sent;
    total.datagrams_delivered += run.datagrams_delivered;
    total.drops_switch_queue += run.drops_switch_queue;
    total.drops_sockbuf += run.drops_sockbuf;
}

/// The replica check: the same seed must give `Scenario::run`'s
/// communication time, network counters and engine counters bit for bit,
/// and every delivered payload must carry the message's CRC-32C.
fn check_replica(r: &mut Report, f: Family, sc: &Scenario, want: &RunResult, got: &Replica) {
    let name = f.name();
    if got.comm_time != Some(want.comm_time) {
        r.problem(format!(
            "{name}: replica comm_time {:?} != Scenario::run {}",
            got.comm_time, want.comm_time
        ));
    }
    if got.trace != want.trace {
        r.problem(format!(
            "{name}: replica TraceCounters differ from Scenario::run"
        ));
    }
    if got.sender_stats != want.sender_stats || got.receiver_stats != want.receiver_stats {
        r.problem(format!("{name}: replica Stats differ from Scenario::run"));
    }
    let crc = rmwire::crc32c(&sc.payload());
    let n = u64::from(sc.n_receivers);
    let intact = got
        .crcs
        .iter()
        .filter(|&&(_, msg, c)| msg == 0 && c == crc)
        .map(|&(rank, _, _)| rank)
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    r.deliveries(n, n - intact.min(n));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_config_is_valid_at_every_workload_size() {
        for n in [2u16, 8, 30, 1000] {
            for f in Family::ALL {
                let cfg = f.config(n);
                let ok = std::panic::catch_unwind(|| cfg.validate(usize::from(n))).is_ok();
                assert!(ok, "{} rejected at N={n}", f.name());
            }
        }
        assert_eq!(Family::Ring.config(30).window, 35);
        assert_eq!(Family::Ring.config(1000).window, 1005);
    }

    #[test]
    fn replica_matches_scenario_run() {
        let sc = scenario(Family::Nak, 4);
        let want = sc.run(3);
        let mut l = Layers::default();
        let cap = Capture::default();
        let got = replica(&sc, Family::Nak.config(4), 3, &mut l, Some(&cap));
        let mut r = Report::default();
        check_replica(&mut r, Family::Nak, &sc, &want, &got);
        assert_eq!((r.attempted, r.failed), (4, 0));
        let json = r.to_json(crate::END_TO_END);
        assert!(json.starts_with("{\"correct\": true"), "{json}");
        assert!(l.callbacks.calls() > 0 && l.sender.calls() > 0 && l.receiver.calls() > 0);
        assert!(l.run_ns >= l.callbacks.ns() && l.callbacks.ns() >= l.ctx.ns());
        assert!(!cap.borrow().is_empty());
    }
}
