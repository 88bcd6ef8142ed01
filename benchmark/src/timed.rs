//! Tracing from the benchmark's side of the public API: a span book, and the
//! two decorators that put spans around every call the engine makes into
//! the matchmaker and the observer.
//!
//! Phases (input generation, `Engine::new`, `Engine::run`, the post-run
//! stages) are recorded as one span each. The calls *inside* `Engine::new`
//! and `Engine::run` happen up to a million times per run, so each call site
//! folds into one span per (call, enclosing phase): `calls` and `busy_ns`
//! accumulate, `start_ns`/`end_ns` cover first call to last. A layer's self
//! time is its span's busy time minus its children's ([`self_ns`]).

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use dgrid::core::{
    GridNodeId, MatchOutcome, Matchmaker, NodeTable, Observer, OwnerRef, PlacementPolicy,
    TraceEvent,
};
use dgrid::resources::JobProfile;
use dgrid::sim::rng::SimRng;
use dgrid::sim::telemetry::SharedHook;
use dgrid::sim::SimTime;
use serde::{Deserialize, Serialize};

/// One span: a phase (`calls == 1`) or all calls of one kind inside a phase.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Layer boundary, e.g. `engine.run` or `matchmaker.find_run_node`.
    pub name: String,
    /// Name of the span that caused this one (`None` at top level).
    pub parent: Option<String>,
    /// Spans of one run share this identifier (the run's seed).
    pub run_id: u64,
    /// First entry, nanoseconds since the run began.
    pub start_ns: u64,
    /// Last exit, nanoseconds since the run began.
    pub end_ns: u64,
    /// How many calls were folded in.
    pub calls: u64,
    /// Time spent inside, summed over calls.
    pub busy_ns: u64,
}

/// Busy time of every span called `name`, in nanoseconds.
pub fn busy_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.busy_ns)
        .sum()
}

/// Calls folded into every span called `name`.
pub fn calls(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.calls)
        .sum()
}

/// Self time of the span called `name`: its busy time minus the busy time
/// of the spans it caused. Saturates at zero (timer granularity can make the
/// children of a very short span sum past it).
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent.as_deref() == Some(name))
        .map(|s| s.busy_ns)
        .sum();
    busy_ns(spans, name).saturating_sub(children)
}

/// The engine-side calls the decorators time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `Matchmaker::bootstrap`.
    Bootstrap,
    /// `Matchmaker::set_placement`.
    SetPlacement,
    /// `Matchmaker::tick`.
    Tick,
    /// `Matchmaker::assign_owner`.
    AssignOwner,
    /// `Matchmaker::find_run_node`.
    FindRunNode,
    /// `Matchmaker::reassign_owner`.
    ReassignOwner,
    /// `Matchmaker::on_join` and `on_leave`.
    Membership,
    /// `Matchmaker::lease_registrar`.
    LeaseRegistrar,
    /// `Matchmaker::resolve_guid`.
    ResolveGuid,
    /// `Observer::on_event`.
    OnEvent,
}

impl Call {
    const ALL: [Call; 10] = [
        Call::Bootstrap,
        Call::SetPlacement,
        Call::Tick,
        Call::AssignOwner,
        Call::FindRunNode,
        Call::ReassignOwner,
        Call::Membership,
        Call::LeaseRegistrar,
        Call::ResolveGuid,
        Call::OnEvent,
    ];

    /// The span name of this call.
    pub fn span_name(self) -> &'static str {
        match self {
            Call::Bootstrap => "matchmaker.bootstrap",
            Call::SetPlacement => "matchmaker.set_placement",
            Call::Tick => "matchmaker.tick",
            Call::AssignOwner => "matchmaker.assign_owner",
            Call::FindRunNode => "matchmaker.find_run_node",
            Call::ReassignOwner => "matchmaker.reassign_owner",
            Call::Membership => "matchmaker.membership",
            Call::LeaseRegistrar => "matchmaker.lease_registrar",
            Call::ResolveGuid => "matchmaker.resolve_guid",
            Call::OnEvent => "observer.on_event",
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Folded {
    calls: u64,
    busy_ns: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The span book of one traced run. Spans stay in memory until the run is
/// over; the child process hands them to its parent in its one result line.
pub struct Tracer {
    t0: Instant,
    run_id: u64,
    /// Closed phase spans, in closing order.
    phases: Vec<Span>,
    /// Per-call spans, one table per phase they were seen in; table 0
    /// catches calls made outside any phase.
    folded: Vec<(&'static str, [Folded; Call::ALL.len()])>,
    /// Index into `folded` of the open phase.
    open_table: usize,
    /// Successful `find_run_node` calls (the useful-outcome count).
    pub matches: u64,
    /// Every event the observer saw, in emission order, for the oracles and
    /// the decode check. Pushed outside the observer's span, so its cost
    /// lands in the tracing overhead, not in `observer.on_event`.
    pub log: Vec<(SimTime, TraceEvent)>,
}

/// A tracer shared between the benchmark and the decorators the engine owns.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh book whose clock starts now.
    pub fn shared(run_id: u64, expected_events: usize) -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            t0: Instant::now(),
            run_id,
            phases: Vec::new(),
            folded: vec![("untracked", [Folded::default(); Call::ALL.len()])],
            open_table: 0,
            matches: 0,
            log: Vec::with_capacity(expected_events),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open the phase the following decorated calls belong to; returns the
    /// token [`Tracer::close`] needs.
    pub fn open(&mut self, name: &'static str) -> u64 {
        self.open_table = match self.folded.iter().position(|(p, _)| *p == name) {
            Some(i) => i,
            None => {
                self.folded
                    .push((name, [Folded::default(); Call::ALL.len()]));
                self.folded.len() - 1
            }
        };
        self.now_ns()
    }

    /// Close a phase opened at `start_ns` under `parent`.
    pub fn close(&mut self, name: &'static str, parent: Option<&'static str>, start_ns: u64) {
        let end_ns = self.now_ns();
        self.open_table = 0;
        self.phases.push(Span {
            name: name.to_string(),
            parent: parent.map(str::to_string),
            run_id: self.run_id,
            start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns - start_ns,
        });
    }

    fn record(&mut self, call: Call, started: Instant) {
        let end = Instant::now();
        let busy_ns = end.duration_since(started).as_nanos() as u64;
        let end_ns = end.duration_since(self.t0).as_nanos() as u64;
        let f = &mut self.folded[self.open_table].1[call as usize];
        if f.calls == 0 {
            f.start_ns = end_ns - busy_ns;
        }
        f.calls += 1;
        f.busy_ns += busy_ns;
        f.end_ns = end_ns;
    }

    /// Every span of the run: phases first, then the folded call spans.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = self.phases.clone();
        for (phase, table) in &self.folded {
            for call in Call::ALL {
                let f = table[call as usize];
                if f.calls > 0 {
                    out.push(Span {
                        name: call.span_name().to_string(),
                        parent: Some(phase.to_string()),
                        run_id: self.run_id,
                        start_ns: f.start_ns,
                        end_ns: f.end_ns,
                        calls: f.calls,
                        busy_ns: f.busy_ns,
                    });
                }
            }
        }
        out
    }
}

/// Time one phase: open it, run `f`, close it.
pub fn phase<T>(
    tracer: &SharedTracer,
    name: &'static str,
    parent: Option<&'static str>,
    f: impl FnOnce() -> T,
) -> T {
    let start = tracer.borrow_mut().open(name);
    let out = f();
    tracer.borrow_mut().close(name, parent, start);
    out
}

/// Wraps the matchmaker handed to the engine and times every call into it.
/// Every trait method is forwarded, so the engine and the stream it emits
/// cannot tell the difference (the transparency self-test and the digest
/// gate on every traced run hold this to account).
pub struct TimedMatchmaker {
    inner: Box<dyn Matchmaker>,
    tracer: SharedTracer,
}

impl TimedMatchmaker {
    /// Decorate `inner`.
    pub fn new(inner: Box<dyn Matchmaker>, tracer: SharedTracer) -> Self {
        TimedMatchmaker { inner, tracer }
    }

    fn timed<T>(&mut self, call: Call, f: impl FnOnce(&mut dyn Matchmaker) -> T) -> T {
        let started = Instant::now();
        let out = f(self.inner.as_mut());
        self.tracer.borrow_mut().record(call, started);
        out
    }
}

impl Matchmaker for TimedMatchmaker {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_join(&mut self, nodes: &NodeTable, node: GridNodeId, rng: &mut SimRng) {
        self.timed(Call::Membership, |m| m.on_join(nodes, node, rng))
    }

    fn bootstrap(&mut self, nodes: &NodeTable, rng: &mut SimRng) {
        self.timed(Call::Bootstrap, |m| m.bootstrap(nodes, rng))
    }

    fn on_leave(&mut self, nodes: &NodeTable, node: GridNodeId, graceful: bool) {
        self.timed(Call::Membership, |m| m.on_leave(nodes, node, graceful))
    }

    fn assign_owner(
        &mut self,
        nodes: &NodeTable,
        job: &JobProfile,
        guid: u64,
        injection: GridNodeId,
        rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        self.timed(Call::AssignOwner, |m| {
            m.assign_owner(nodes, job, guid, injection, rng)
        })
    }

    fn find_run_node(
        &mut self,
        nodes: &NodeTable,
        owner: OwnerRef,
        job: &JobProfile,
        rng: &mut SimRng,
    ) -> MatchOutcome {
        let out = self.timed(Call::FindRunNode, |m| {
            m.find_run_node(nodes, owner, job, rng)
        });
        if out.run_node.is_some() {
            self.tracer.borrow_mut().matches += 1;
        }
        out
    }

    fn reassign_owner(
        &mut self,
        nodes: &NodeTable,
        job: &JobProfile,
        guid: u64,
        rng: &mut SimRng,
    ) -> Option<(OwnerRef, u32)> {
        self.timed(Call::ReassignOwner, |m| {
            m.reassign_owner(nodes, job, guid, rng)
        })
    }

    fn tick(&mut self, nodes: &NodeTable) {
        self.timed(Call::Tick, |m| m.tick(nodes))
    }

    fn resolve_guid(&mut self, nodes: &NodeTable, guid: u64, rng: &mut SimRng) -> Option<u32> {
        self.timed(Call::ResolveGuid, |m| m.resolve_guid(nodes, guid, rng))
    }

    // A counter drain after every overlay call; too small to time.
    fn take_lookup_retries(&mut self) -> u64 {
        self.inner.take_lookup_retries()
    }

    fn set_telemetry_hook(&mut self, hook: SharedHook) {
        self.inner.set_telemetry_hook(hook)
    }

    fn set_placement(&mut self, placement: PlacementPolicy) {
        self.timed(Call::SetPlacement, |m| m.set_placement(placement))
    }

    fn lease_registrar(&mut self, nodes: &NodeTable, guid: u64) -> Option<GridNodeId> {
        self.timed(Call::LeaseRegistrar, |m| m.lease_registrar(nodes, guid))
    }
}

/// Wraps the real observer: times `on_event`, then logs the event.
pub struct TimedObserver {
    inner: Box<dyn Observer>,
    tracer: SharedTracer,
}

impl TimedObserver {
    /// Decorate `inner`.
    pub fn new(inner: Box<dyn Observer>, tracer: SharedTracer) -> Self {
        TimedObserver { inner, tracer }
    }
}

impl Observer for TimedObserver {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        let started = Instant::now();
        self.inner.on_event(at, event);
        let mut tracer = self.tracer.borrow_mut();
        tracer.record(Call::OnEvent, started);
        tracer.log.push((at, event));
    }

    fn bytes_written(&self) -> Option<u64> {
        self.inner.bytes_written()
    }
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Fnv1a {
    /// The offset basis.
    pub const INIT: Fnv1a = Fnv1a(0xcbf2_9ce4_8422_2325);
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fold bytes in.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Fold one word in (one multiply: the per-event budget of the counting
    /// observer is a few nanoseconds).
    pub fn word(mut self, w: u64) -> Self {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
        self
    }
}

/// Event count and order-sensitive digest a [`CountingObserver`] leaves.
pub type Counted = Rc<Cell<(u64, u64)>>;

/// The observer of the three workloads that keep no stream: counts events
/// (the numerator of `events_per_s`) and folds time, kind and job of each
/// into a digest, so two runs can be compared without storing either.
pub struct CountingObserver {
    out: Counted,
}

impl CountingObserver {
    /// An observer and the cell its totals can be read from after
    /// `Engine::run` has consumed it.
    pub fn new() -> (Self, Counted) {
        let out = Rc::new(Cell::new((0, Fnv1a::INIT.0)));
        (CountingObserver { out: out.clone() }, out)
    }
}

impl Observer for CountingObserver {
    fn on_event(&mut self, at: SimTime, event: TraceEvent) {
        let (n, h) = self.out.get();
        let subject = event.job().map_or(u64::MAX, |j| j.0);
        let h = Fnv1a(h)
            .word(at.as_nanos())
            .word(event.kind().index() as u64)
            .word(subject);
        self.out.set((n + 1, h.0));
    }
}

/// A `Write` sink whose bytes outlive the `JsonlObserver` the engine owns.
#[derive(Clone, Default)]
pub struct SharedSink(pub Rc<RefCell<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<&str>, busy_ns: u64, calls: u64) -> Span {
        Span {
            name: name.into(),
            parent: parent.map(str::to_string),
            run_id: 1,
            start_ns: 0,
            end_ns: busy_ns,
            calls,
            busy_ns,
        }
    }

    #[test]
    fn self_time_is_busy_minus_children() {
        let spans = vec![
            span("engine.run", None, 1_000, 1),
            span("matchmaker.tick", Some("engine.run"), 300, 3),
            span("observer.on_event", Some("engine.run"), 250, 50),
            // The same call seen under another phase is not a child of run.
            span("matchmaker.tick", Some("engine.new"), 900, 1),
        ];
        assert_eq!(self_ns(&spans, "engine.run"), 450);
        assert_eq!(busy_ns(&spans, "matchmaker.tick"), 1_200);
        assert_eq!(calls(&spans, "matchmaker.tick"), 4);
        // A leaf's self time is its busy time; an absent span has none.
        assert_eq!(self_ns(&spans, "observer.on_event"), 250);
        assert_eq!(self_ns(&spans, "engine.shard"), 0);
    }

    #[test]
    fn self_time_saturates() {
        let spans = vec![span("p", None, 10, 1), span("c", Some("p"), 12, 1)];
        assert_eq!(self_ns(&spans, "p"), 0);
    }

    #[test]
    fn tracer_folds_calls_per_phase() {
        let tracer = Tracer::shared(9, 0);
        phase(&tracer, "engine.new", None, || {
            tracer.borrow_mut().record(Call::Tick, Instant::now());
        });
        phase(&tracer, "engine.run", None, || {
            for _ in 0..3 {
                tracer.borrow_mut().record(Call::Tick, Instant::now());
            }
        });
        let spans = tracer.borrow().spans();
        let ticks: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "matchmaker.tick")
            .collect();
        assert_eq!(ticks.len(), 2);
        assert_eq!(ticks[0].parent.as_deref(), Some("engine.new"));
        assert_eq!(ticks[0].calls, 1);
        assert_eq!(ticks[1].parent.as_deref(), Some("engine.run"));
        assert_eq!(ticks[1].calls, 3);
        assert!(spans
            .iter()
            .all(|s| s.run_id == 9 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(Fnv1a::INIT.bytes(b"").0, 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::INIT.bytes(b"a").0, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::INIT.bytes(b"foobar").0, 0x8594_4171_f739_67e8);
    }
}
