//! `engine_loopback`: the five families' engines driven by the
//! benchmark's own in-memory loop over the public `Endpoint` calls, with
//! seeded per-copy loss. No netsim, no sockets: engine and codec do
//! nearly all the work.

use crate::report::{self, median, repeat_within, secs, Passes, Report};
use crate::sims::{self, engine_datagrams, Family, MSG_BYTES};
use crate::timing::{self, Capture, Clock, TimedEndpoint};
use crate::{Args, SETUP_REPS};
use bytes::Bytes;
use rmcast::{AppEvent, Dest, Endpoint, GroupSpec, Receiver, Sender, Stats, Transmit};
use rmwire::{Rank, Time};
use std::rc::Rc;
use std::time::Instant;

/// Receivers per transfer.
const N: u16 = 8;
/// Probability that one delivered copy of a datagram is lost.
const LOSS: f64 = 0.01;
/// Loss patterns per run: pass `p` uses pattern `p % LOSS_PATTERNS`.
const LOSS_PATTERNS: u64 = 16;
/// Virtual time after which a transfer counts as hung.
const TIME_CAP: Time = Time::from_nanos(600 * 1_000_000_000);

/// SplitMix64: the benchmark's deterministic input generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e9b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `len` pseudo-random payload bytes for message `index` under `seed`.
pub fn payload(seed: u64, index: u64, len: usize) -> Bytes {
    let mut g = SplitMix::new(seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&g.next_u64().to_le_bytes());
    }
    v.truncate(len);
    Bytes::from(v)
}

/// One transfer's endpoints: a sender with the message queued and `N`
/// receivers.
struct Group<S, R> {
    sender: S,
    receivers: Vec<R>,
}

/// What a transfer delivered, checked after its timing stops.
#[derive(Default)]
struct Outcome {
    sent: bool,
    deliveries: Vec<(usize, u64, Bytes)>,
    handled: u64,
}

fn deliver<S: Endpoint, R: Endpoint>(
    g: &mut Group<S, R>,
    now: Time,
    from: Option<usize>,
    t: &Transmit,
    rng: &mut SplitMix,
) {
    let mut copy = |ep: &mut dyn Endpoint| {
        if rng.unit() >= LOSS {
            ep.handle_datagram(now, &t.payload);
        }
    };
    match t.dest {
        Dest::Sender => copy(&mut g.sender),
        Dest::Rank(rank) => {
            let i = rank.receiver_index();
            if from != Some(i) {
                copy(&mut g.receivers[i]);
            }
        }
        Dest::Receivers => {
            for (i, r) in g.receivers.iter_mut().enumerate() {
                if from != Some(i) {
                    copy(r);
                }
            }
        }
    }
}

/// Drive `g` until every endpoint is idle with no timer pending: flush
/// transmits round by round, then jump virtual time to the earliest
/// deadline.
fn drive<S: Endpoint, R: Endpoint>(
    g: &mut Group<S, R>,
    rng: &mut SplitMix,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut now = Time::ZERO;
    let mut flights: Vec<(Option<usize>, Transmit)> = Vec::new();
    loop {
        loop {
            while let Some(t) = g.sender.poll_transmit() {
                flights.push((None, t));
            }
            for (i, r) in g.receivers.iter_mut().enumerate() {
                while let Some(t) = r.poll_transmit() {
                    flights.push((Some(i), t));
                }
            }
            if flights.is_empty() {
                break;
            }
            for (from, t) in flights.drain(..) {
                deliver(g, now, from, &t, rng);
            }
        }
        while let Some(ev) = g.sender.poll_event() {
            match ev {
                AppEvent::MessageSent { .. } => out.sent = true,
                other => return Err(format!("sender event {other:?}")),
            }
        }
        for (i, r) in g.receivers.iter_mut().enumerate() {
            while let Some(ev) = r.poll_event() {
                match ev {
                    AppEvent::MessageDelivered { msg_id, data } => {
                        out.deliveries.push((i, msg_id, data))
                    }
                    other => return Err(format!("receiver {i} event {other:?}")),
                }
            }
        }
        let next = std::iter::once(g.sender.poll_timeout())
            .chain(g.receivers.iter().map(|r| r.poll_timeout()))
            .flatten()
            .min();
        let Some(at) = next else { break };
        if at > TIME_CAP {
            return Err(format!("no quiescence before {TIME_CAP}"));
        }
        now = now.max(at);
        if g.sender.poll_timeout().is_some_and(|d| d <= now) {
            g.sender.handle_timeout(now);
        }
        for r in &mut g.receivers {
            if r.poll_timeout().is_some_and(|d| d <= now) {
                r.handle_timeout(now);
            }
        }
    }
    if !g.sender.is_idle() || g.receivers.iter().any(|r| !r.is_idle()) {
        return Err("quiescent with a busy endpoint".into());
    }
    out.handled = engine_datagrams(
        g.sender.stats(),
        &g.receivers.iter().map(|r| r.stats()).collect::<Vec<_>>(),
    );
    Ok(out)
}

/// A transfer's inputs: the message and its receivers' seed.
struct Inputs {
    msg: Bytes,
    seed: u64,
}

fn loss_seed(seed: u64, pass: u64, family: usize) -> u64 {
    SplitMix::new(seed ^ (pass % LOSS_PATTERNS) << 8 ^ family as u64).next_u64()
}

fn receiver_seed(seed: u64, rank: Rank) -> u64 {
    seed.wrapping_add(u64::from(rank.0))
}

/// One untimed-wrapper transfer of family `f`.
fn plain(f: Family, inp: &Inputs, rng: &mut SplitMix) -> Result<(Outcome, Stats), String> {
    let cfg = f.config(N);
    let group = GroupSpec::new(N);
    let mut sender = Sender::new(cfg, group);
    sender.send_message(Time::ZERO, inp.msg.clone());
    let receivers = group
        .receivers()
        .map(|rank| Receiver::new(cfg, group, rank, receiver_seed(inp.seed, rank)))
        .collect();
    let mut g = Group { sender, receivers };
    let out = drive(&mut g, rng)?;
    Ok((out, g.sender.stats().clone()))
}

/// The same transfer with every engine call timed.
fn timed(
    f: Family,
    inp: &Inputs,
    rng: &mut SplitMix,
    sc: &Rc<Clock>,
    rc: &Rc<Clock>,
    cap: Option<&Capture>,
) -> Result<(Outcome, Stats), String> {
    let cfg = f.config(N);
    let group = GroupSpec::new(N);
    let mut sender = TimedEndpoint::new(
        sc.time(|| Sender::new(cfg, group)),
        Rc::clone(sc),
        cap.cloned(),
        None,
    );
    sender.timed(|s| s.send_message(Time::ZERO, inp.msg.clone()));
    let receivers = group
        .receivers()
        .map(|rank| {
            let r = rc.time(|| Receiver::new(cfg, group, rank, receiver_seed(inp.seed, rank)));
            TimedEndpoint::new(r, Rc::clone(rc), cap.cloned(), None)
        })
        .collect();
    let mut g = Group { sender, receivers };
    let out = drive(&mut g, rng)?;
    let stats = g.sender.stats().clone();
    Ok((out, stats))
}

/// Check a transfer's deliveries: every receiver exactly once, every
/// payload byte-identical to the message.
fn check(
    r: &mut Report,
    f: Family,
    inp: &Inputs,
    res: Result<(Outcome, Stats), String>,
) -> Option<(Outcome, Stats)> {
    let n = u64::from(N);
    let (out, stats) = match res {
        Ok(x) => x,
        Err(e) => {
            r.problem(format!("{}: {e}", f.name()));
            r.deliveries(n, n);
            return None;
        }
    };
    let mut seen = vec![false; usize::from(N)];
    for (i, msg, data) in &out.deliveries {
        if *msg == 0 && !seen[*i] && *data == inp.msg {
            seen[*i] = true;
        } else {
            r.problem(format!(
                "{}: receiver {i} delivered message {msg} wrongly",
                f.name()
            ));
        }
    }
    let good = seen.iter().filter(|s| **s).count() as u64;
    r.deliveries(n, n - good);
    if !out.sent {
        r.problem(format!("{}: the sender never completed", f.name()));
    }
    Some((out, stats))
}

/// One pass: the five families, one transfer each. Returns the seconds
/// of each transfer and the datagrams the engines handled.
fn pass(
    args: &Args,
    index: u64,
    msg: &Bytes,
    r: &mut Report,
    mut transfer: impl FnMut(Family, &Inputs, &mut SplitMix) -> Result<(Outcome, Stats), String>,
    stats: &mut Stats,
) -> (Vec<f64>, u64) {
    let mut op_s = Vec::with_capacity(Family::ALL.len());
    let mut handled = 0;
    for (k, f) in Family::ALL.into_iter().enumerate() {
        let inp = Inputs {
            msg: msg.clone(),
            seed: args.seed,
        };
        let mut rng = SplitMix::new(loss_seed(args.seed, index, k));
        let t = Instant::now();
        let res = transfer(f, &inp, &mut rng);
        op_s.push(secs(t));
        if let Some((out, s)) = check(r, f, &inp, res) {
            handled += out.handled;
            stats.merge(&s);
        }
    }
    (op_s, handled)
}

pub fn run(args: &Args, start: Instant) -> Report {
    let mut r = Report::default();
    let (msg, setup_s) = report::setup(start, SETUP_REPS, || {
        let msg = payload(args.seed, 0, MSG_BYTES);
        // Untimed warm-up: one pass through every family.
        let mut scratch = Report::default();
        pass(args, 0, &msg, &mut scratch, plain, &mut Stats::default());
        msg
    });
    if args.trace {
        traced(args, &msg, &mut r);
        return r;
    }

    let mut passes = Passes::default();
    let mut index = 0;
    repeat_within(Instant::now(), args.seconds, 1, || {
        let (op_s, handled) = pass(args, index, &msg, &mut r, plain, &mut Stats::default());
        let bits = (Family::ALL.len() * MSG_BYTES * 8) as f64;
        passes.record(&op_s, op_s.iter().sum(), handled, bits);
        index += 1;
    });
    passes.report(&mut r, setup_s, "transfers");
    sims::report_sim_comm(&mut r, N, args.seed, &[]);
    r
}

/// Plain passes for half the time, then passes with every engine call
/// timed, then one timed pass that keeps its datagrams for the codec
/// replay (kept apart: retained buffers change how the allocator serves
/// the 500 KB messages, and so the timing of the passes around them).
fn traced(args: &Args, msg: &Bytes, r: &mut Report) {
    let measure = Instant::now();
    let mut untraced_s = Vec::new();
    let mut index = 0;
    repeat_within(measure, args.seconds / 2.0, 1, || {
        let (op_s, _) = pass(args, index, msg, r, plain, &mut Stats::default());
        untraced_s.push(op_s.iter().sum::<f64>());
        index += 1;
    });

    let sc = Rc::new(Clock::default());
    let rc = Rc::new(Clock::default());
    let mut stats = Stats::default();
    let mut traced_s = Vec::new();
    let mut pass_s = 0.0;
    let passes = repeat_within(measure, args.seconds, 1, || {
        let t = Instant::now();
        let timed = |f, inp: &Inputs, rng: &mut SplitMix| timed(f, inp, rng, &sc, &rc, None);
        let (op_s, _) = pass(args, index, msg, r, timed, &mut stats);
        traced_s.push(op_s.iter().sum::<f64>());
        pass_s += secs(t);
        index += 1;
    });
    let cap = Capture::default();
    let (csc, crc) = (Rc::default(), Rc::default());
    let capture = |f, inp: &Inputs, rng: &mut SplitMix| timed(f, inp, rng, &csc, &crc, Some(&cap));
    pass(args, index, msg, r, capture, &mut Stats::default());

    // Shares are of the traced passes' wall time. The transfers are
    // engine calls or this loop; checking their deliveries is neither.
    let wall = pass_s * 1e9;
    let transfers = traced_s.iter().sum::<f64>() * 1e9;
    let driver = transfers - (sc.ns() + rc.ns()) as f64;
    engine_layer_metrics(r, &sc, &rc, passes, wall, &cap.borrow());
    stats_metrics(r, &stats, passes);
    r.metric("driver.self_s", driver / passes as f64 / 1e9);
    r.metric("driver.share", driver / wall);
    r.metric("unattributed.share", (wall - transfers) / wall);
    r.metric(
        "trace_overhead",
        median(&mut traced_s) / median(&mut untraced_s) - 1.0,
    );
}

/// `rmcast.sender.*`, `rmcast.receiver.*` and `rmcast.packet.*` from the
/// engine clocks of `passes` traced passes taking `wall_ns` in all.
/// `rmcast.packet.share` is the replayed parse cost of every datagram the
/// engines handled, as a share of their self time.
pub fn engine_layer_metrics(
    r: &mut Report,
    sender: &Clock,
    receiver: &Clock,
    passes: usize,
    wall_ns: f64,
    captured: &[Bytes],
) {
    for (side, c) in [("sender", sender), ("receiver", receiver)] {
        let ns = c.ns() as f64;
        let calls = c.calls().max(1) as f64;
        r.metric(&format!("rmcast.{side}.self_s"), ns / passes as f64 / 1e9);
        r.metric(&format!("rmcast.{side}.share"), ns / wall_ns);
        r.metric(
            &format!("rmcast.{side}.calls"),
            c.calls() as f64 / passes as f64,
        );
        r.metric(&format!("rmcast.{side}.ns_per_call"), ns / calls);
    }
    match timing::parse_ns(captured) {
        Ok(Some(ns)) => {
            let handled = (sender.datagrams() + receiver.datagrams()) as f64;
            let engine = (sender.ns() + receiver.ns()) as f64;
            r.metric("rmcast.packet.parse_ns", ns);
            r.metric("rmcast.packet.share", ns * handled / engine);
        }
        Ok(None) => r.problem("no datagrams captured for the codec replay".into()),
        Err(e) => r.problem(e),
    }
}

/// The sender's `Stats` counters, per pass.
pub fn stats_metrics(r: &mut Report, s: &Stats, passes: usize) {
    let per = |v: u64| v as f64 / passes as f64;
    r.metric("rmcast.data_sent", per(s.data_sent));
    r.metric("rmcast.retx_sent", per(s.retx_sent));
    r.metric(
        "rmcast.retx_per_data",
        s.retx_sent as f64 / s.data_sent.max(1) as f64,
    );
    r.metric("rmcast.acks_received", per(s.acks_received));
    r.metric("rmcast.naks_received", per(s.naks_received));
    r.metric("rmcast.timeouts", per(s.timeouts));
    r.metric("rmcast.window_shrinks", per(s.window_shrinks));
    r.metric("rmcast.user_copy_bytes", per(s.user_copy_bytes));
    r.metric("rmcast.peak_buffer_bytes", s.peak_buffer_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_follow_the_seed() {
        assert_eq!(payload(1, 0, 1000), payload(1, 0, 1000));
        assert_ne!(payload(1, 0, 1000), payload(2, 0, 1000));
        assert_ne!(payload(1, 0, 1000), payload(1, 1, 1000));
        assert_eq!(payload(1, 0, 13).len(), 13);
    }

    #[test]
    fn every_family_delivers_under_loss_timed_or_not() {
        let args = Args {
            workload: "engine_loopback".into(),
            seed: 5,
            seconds: 1.0,
            trace: false,
        };
        let msg = payload(5, 0, 100_000);
        let mut r = Report::default();
        let (ms, handled) = pass(&args, 0, &msg, &mut r, plain, &mut Stats::default());
        assert_eq!(ms.len(), 5);
        let (sc, rc, cap) = (Rc::default(), Rc::default(), Capture::default());
        let mut stats = Stats::default();
        let (_, handled_timed) = pass(
            &args,
            0,
            &msg,
            &mut r,
            |f, inp: &Inputs, rng: &mut SplitMix| timed(f, inp, rng, &sc, &rc, Some(&cap)),
            &mut stats,
        );
        assert_eq!(handled, handled_timed, "timing must not change the run");
        assert_eq!((r.attempted, r.failed), (80, 0));
        assert!(r
            .to_json(crate::END_TO_END)
            .starts_with("{\"correct\": true"));
        assert!(stats.data_sent > 0 && !cap.borrow().is_empty());
    }
}
