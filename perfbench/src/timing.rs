//! The benchmark's own spans: timing wrappers around the calls into each
//! layer. Nothing here changes what the wrapped code does; it only reads
//! the monotonic clock around each call and adds the elapsed time to a
//! shared [`Clock`]. Self time follows by subtraction: a layer's span
//! minus the spans of the layers it calls.

use bytes::Bytes;
use netsim::process::{Ctx, DatagramIn, Process};
use rmcast::{AppEvent, Endpoint, Stats, Transmit};
use rmwire::Time;
use simrun::adapter::Launch;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Accumulated time and call count at one layer boundary.
#[derive(Debug, Default)]
pub struct Clock {
    ns: Cell<u64>,
    calls: Cell<u64>,
    datagrams: Cell<u64>,
}

impl Clock {
    /// Time `f` as one call into the layer.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(t.elapsed());
        out
    }

    fn add(&self, d: Duration) {
        self.ns.set(self.ns.get() + d.as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }

    /// Nanoseconds spent inside the layer.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Calls made into the layer.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// `handle_datagram` calls among [`Clock::calls`].
    pub fn datagrams(&self) -> u64 {
        self.datagrams.get()
    }
}

/// The stretches of a simulated node's callback that run netsim code on
/// simrun's behalf: the adapter's `Ctx` calls. `NodeProcess` charges CPU
/// cost and sends each datagram the engine hands over, and re-arms its
/// timer after the last `poll_timeout`, through `Ctx` into the fabric.
/// No span can be placed around those calls from outside, so they are
/// measured as gaps: from the callback's start, a transmit leaving the
/// engine, or `poll_timeout` returning, to the next engine call or the
/// callback's end. The adapter's own code in those gaps is a match and
/// an address lookup.
#[derive(Debug)]
pub struct CtxGaps {
    open: Cell<Option<Instant>>,
    clock: Rc<Clock>,
}

impl CtxGaps {
    /// Gaps of one node, added to `clock`.
    pub fn new(clock: Rc<Clock>) -> Rc<Self> {
        Rc::new(CtxGaps {
            open: Cell::new(None),
            clock,
        })
    }

    fn open(&self, at: Instant) {
        self.open.set(Some(at));
    }

    fn close(&self, at: Instant) {
        if let Some(from) = self.open.take() {
            self.clock.add(at - from);
        }
    }
}

/// Datagrams the engines transmitted, kept for replay through the codec.
pub type Capture = Rc<RefCell<Vec<Bytes>>>;

/// At most this many transmits are kept per capture: enough for a stable
/// per-parse mean, few enough that N=1000 runs stay small.
const CAPTURE_CAP: usize = 1 << 16;

/// A protocol engine whose every `Endpoint` call is timed into `clock`.
pub struct TimedEndpoint<E> {
    inner: E,
    clock: Rc<Clock>,
    capture: Option<Capture>,
    gaps: Option<Rc<CtxGaps>>,
}

impl<E> TimedEndpoint<E> {
    /// Wrap `inner`. With `capture`, every transmitted datagram is also
    /// kept; with `gaps`, the node's `Ctx` stretches are measured.
    pub fn new(
        inner: E,
        clock: Rc<Clock>,
        capture: Option<Capture>,
        gaps: Option<Rc<CtxGaps>>,
    ) -> Self {
        TimedEndpoint {
            inner,
            clock,
            capture,
            gaps,
        }
    }

    /// Run an engine call that is not part of `Endpoint` (such as
    /// `Sender::send_message`) inside the same clock.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut E) -> T) -> T {
        let inner = &mut self.inner;
        self.clock.time(|| f(inner))
    }

    /// Time `f` as one engine call; `hands_over` says whether its result
    /// passes control to the adapter's `Ctx` calls.
    fn call<T>(
        clock: &Clock,
        gaps: &Option<Rc<CtxGaps>>,
        f: impl FnOnce() -> T,
        hands_over: impl FnOnce(&T) -> bool,
    ) -> T {
        let t0 = Instant::now();
        if let Some(g) = gaps {
            g.close(t0);
        }
        let out = f();
        let t1 = Instant::now();
        clock.add(t1 - t0);
        if let Some(g) = gaps {
            if hands_over(&out) {
                g.open(t1);
            }
        }
        out
    }
}

impl<E: Endpoint> Endpoint for TimedEndpoint<E> {
    fn handle_datagram(&mut self, now: Time, datagram: &[u8]) {
        let TimedEndpoint {
            inner, clock, gaps, ..
        } = self;
        clock.datagrams.set(clock.datagrams.get() + 1);
        Self::call(
            clock,
            gaps,
            || inner.handle_datagram(now, datagram),
            |_| false,
        );
    }

    fn handle_timeout(&mut self, now: Time) {
        let TimedEndpoint {
            inner, clock, gaps, ..
        } = self;
        Self::call(clock, gaps, || inner.handle_timeout(now), |_| false);
    }

    fn poll_timeout(&self) -> Option<Time> {
        Self::call(
            &self.clock,
            &self.gaps,
            || self.inner.poll_timeout(),
            |_| true,
        )
    }

    fn poll_transmit(&mut self) -> Option<Transmit> {
        let TimedEndpoint {
            inner,
            clock,
            gaps,
            capture,
        } = self;
        let t = Self::call(clock, gaps, || inner.poll_transmit(), Option::is_some);
        if let (Some(t), Some(cap)) = (&t, capture) {
            let mut cap = cap.borrow_mut();
            if cap.len() < CAPTURE_CAP {
                cap.push(t.payload.clone());
            }
        }
        t
    }

    fn poll_event(&mut self) -> Option<AppEvent> {
        let TimedEndpoint {
            inner, clock, gaps, ..
        } = self;
        Self::call(clock, gaps, || inner.poll_event(), |_| false)
    }

    fn stats(&self) -> &Stats {
        Self::call(&self.clock, &self.gaps, || self.inner.stats(), |_| false)
    }

    fn is_idle(&self) -> bool {
        Self::call(&self.clock, &self.gaps, || self.inner.is_idle(), |_| false)
    }

    fn set_trace_sink(&mut self, sink: Box<dyn rmcast::TraceSink>) {
        self.inner.set_trace_sink(sink);
    }

    fn enable_flight_recorder(&mut self, cap: usize) {
        self.inner.enable_flight_recorder(cap);
    }
}

impl<E: Launch> Launch for TimedEndpoint<E> {
    fn launch(&mut self, now: Time, msgs: &[Bytes]) {
        let TimedEndpoint {
            inner, clock, gaps, ..
        } = self;
        Self::call(clock, gaps, || inner.launch(now, msgs), |_| false);
    }
}

/// A simulated process whose every callback is timed into `clock`.
pub struct TimedProcess<P> {
    inner: P,
    clock: Rc<Clock>,
    gaps: Rc<CtxGaps>,
}

impl<P> TimedProcess<P> {
    /// Wrap `inner`, whose endpoint shares `gaps`.
    pub fn new(inner: P, clock: Rc<Clock>, gaps: Rc<CtxGaps>) -> Self {
        TimedProcess { inner, clock, gaps }
    }

    fn callback(&mut self, f: impl FnOnce(&mut P)) {
        let t0 = Instant::now();
        // Until the first engine call the adapter charges CPU cost.
        self.gaps.open(t0);
        f(&mut self.inner);
        let t1 = Instant::now();
        // After the last `poll_timeout` it re-arms the timer.
        self.gaps.close(t1);
        self.clock.add(t1 - t0);
    }
}

impl<P: Process> Process for TimedProcess<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.callback(|p| p.on_start(ctx));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.callback(|p| p.on_restart(ctx));
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
        self.callback(|p| p.on_datagram(ctx, dg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        self.callback(|p| p.on_timer(ctx));
    }
}

/// Mean nanoseconds per `Packet::parse` over `datagrams`, the median of
/// several replays. `None` when there is nothing to replay; an error
/// names the first datagram the codec rejects.
pub fn parse_ns(datagrams: &[Bytes]) -> Result<Option<f64>, String> {
    if datagrams.is_empty() {
        return Ok(None);
    }
    for (i, d) in datagrams.iter().enumerate() {
        rmcast::packet::Packet::parse(d)
            .map_err(|e| format!("captured datagram {i} does not parse: {e:?}"))?;
    }
    let mut per_parse: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for d in datagrams {
                let _ =
                    std::hint::black_box(rmcast::packet::Packet::parse(std::hint::black_box(d)));
            }
            t.elapsed().as_nanos() as f64 / datagrams.len() as f64
        })
        .collect();
    Ok(Some(crate::report::median(&mut per_parse)))
}
