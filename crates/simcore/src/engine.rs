//! The event loop: processes, signals, and deterministic dispatch.
//!
//! A simulation is a set of [`Process`]es exchanging items through bounded
//! queues and sleeping on timers. The engine pops scheduled events in
//! `(time, insertion-sequence)` order, so runs are exactly reproducible for
//! a given seed and process construction order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::queue::{PopOutcome, PushOutcome, QueueId, QueueTable};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceSink};

/// Identifier of a process registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub(crate) usize);

impl ProcessId {
    /// Raw index of this process within the engine.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds the id of the `index`-th registered process.
    ///
    /// Ids are assigned sequentially from zero in [`Engine::add_process`]
    /// order, so code that fully controls an engine's setup may compute
    /// forward references to processes it has not added yet. Prefer
    /// [`Engine::next_process_id`] where possible.
    pub fn nth(index: usize) -> ProcessId {
        ProcessId(index)
    }
}

/// An event delivered to a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// First signal a process receives, scheduled by [`Engine::start`].
    Start,
    /// A timer set via [`Ctx::schedule_in`] fired; carries the caller's tag.
    Timer(u64),
    /// A queue this process blocked on may have space/items now. The process
    /// must retry its operation — readiness is a hint, not a guarantee,
    /// because another process may have raced in at the same instant.
    QueueReady(QueueId),
    /// Another process explicitly woke this one via [`Ctx::wake`], with a
    /// caller-chosen tag.
    Poke(u64),
}

/// Behaviour of a simulated component (host worker, infeed engine, TPU core…).
///
/// Handlers run to completion at a single instant of simulated time; passage
/// of time is expressed by scheduling a [`Signal::Timer`] and returning.
pub trait Process {
    /// Handles one signal. `ctx` gives access to the clock, queues, RNG, and
    /// the trace sink.
    fn on_signal(&mut self, sig: Signal, ctx: &mut Ctx<'_>);
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    target: ProcessId,
    signal: Signal,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Execution context handed to [`Process::on_signal`].
///
/// All interaction with the world — time, queues, randomness, tracing —
/// flows through this context, which keeps processes deterministic and
/// testable in isolation.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: ProcessId,
    queues: &'a mut QueueTable,
    rng: &'a mut SimRng,
    sink: &'a mut dyn TraceSink,
    pending: &'a mut Vec<(SimTime, ProcessId, Signal)>,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Id of the process currently handling a signal.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// Schedules a [`Signal::Timer`] for this process `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, tag: u64) {
        self.pending
            .push((self.now + after, self.self_id, Signal::Timer(tag)));
    }

    /// Sends [`Signal::Poke`] to another process at the current instant.
    pub fn wake(&mut self, target: ProcessId, tag: u64) {
        self.pending.push((self.now, target, Signal::Poke(tag)));
    }

    /// Attempts a queue push; on `WouldBlock` this process is registered for
    /// a later [`Signal::QueueReady`].
    pub fn try_push(&mut self, q: QueueId, item: u64) -> PushOutcome {
        let (outcome, woken) = self.queues.push(q, item, self.self_id);
        if let Some(pid) = woken {
            self.pending.push((self.now, pid, Signal::QueueReady(q)));
        }
        outcome
    }

    /// Attempts a queue pop; on `WouldBlock` this process is registered for
    /// a later [`Signal::QueueReady`].
    pub fn try_pop(&mut self, q: QueueId) -> PopOutcome {
        let (outcome, woken) = self.queues.pop(q, self.self_id);
        if let Some(pid) = woken {
            self.pending.push((self.now, pid, Signal::QueueReady(q)));
        }
        outcome
    }

    /// Closes a queue; all blocked consumers are woken to observe the close.
    pub fn close_queue(&mut self, q: QueueId) {
        for pid in self.queues.close(q) {
            self.pending.push((self.now, pid, Signal::QueueReady(q)));
        }
    }

    /// Number of items currently buffered in `q`.
    pub fn queue_len(&self, q: QueueId) -> usize {
        self.queues.len(q)
    }

    /// Deterministic RNG for this simulation.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Records a trace event.
    pub fn emit(&mut self, event: TraceEvent) {
        self.sink.record(&event);
    }

    /// Notifies the sink that training advanced to `step` at the current
    /// instant.
    pub fn mark_step(&mut self, step: u64) {
        self.sink.on_step(step, self.now);
    }

    /// Notifies the sink that a checkpoint was written at `step` at the
    /// current instant.
    pub fn mark_checkpoint(&mut self, step: u64) {
        self.sink.on_checkpoint(step, self.now);
    }
}

/// A deterministic discrete-event simulation engine.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Engine {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled>>,
    processes: Vec<Option<Box<dyn Process>>>,
    queues: QueueTable,
    rng: SimRng,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending_events", &self.heap.len())
            .field("processes", &self.processes.len())
            .finish()
    }
}

impl Engine {
    /// Creates an engine whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            processes: Vec::new(),
            queues: QueueTable::new(),
            rng: SimRng::seed_from(seed),
        }
    }

    /// Registers a process and returns its id. Processes added in the same
    /// order across runs receive the same ids.
    pub fn add_process(&mut self, process: Box<dyn Process>) -> ProcessId {
        let id = ProcessId(self.processes.len());
        self.processes.push(Some(process));
        id
    }

    /// The id the *next* [`Engine::add_process`] call will assign. Lets
    /// mutually-referencing processes be constructed without a fix-up pass.
    pub fn next_process_id(&self) -> ProcessId {
        ProcessId(self.processes.len())
    }

    /// Creates a bounded queue. See [`QueueTable::create`].
    pub fn create_queue(&mut self, capacity: usize) -> QueueId {
        self.queues.create(capacity)
    }

    /// Schedules [`Signal::Start`] for `pid` at the current instant.
    pub fn start(&mut self, pid: ProcessId) {
        self.push_event(self.now, pid, Signal::Start);
    }

    /// Current simulated time (the timestamp of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn push_event(&mut self, at: SimTime, target: ProcessId, signal: Signal) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            at,
            seq,
            target,
            signal,
        }));
    }

    /// Runs until no events remain. Returns the number of delivered signals.
    pub fn run(&mut self, sink: &mut dyn TraceSink) -> u64 {
        self.run_until(None, sink)
    }

    /// Runs until no events remain or simulated time would exceed `deadline`.
    /// Returns the number of delivered signals.
    ///
    /// Events at exactly `deadline` are still delivered; later ones remain
    /// queued so a subsequent call can resume.
    pub fn run_until(&mut self, deadline: Option<SimTime>, sink: &mut dyn TraceSink) -> u64 {
        let mut delivered = 0;
        let mut pending: Vec<(SimTime, ProcessId, Signal)> = Vec::new();
        // Not `while let`: the deadline check must run between peek and pop.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(Reverse(head)) = self.heap.peek() else {
                break;
            };
            if let Some(deadline) = deadline {
                if head.at > deadline {
                    break;
                }
            }
            let Reverse(event) = self.heap.pop().expect("peeked event vanished");
            self.dispatch(event, sink, &mut pending);
            for (at, target, signal) in pending.drain(..) {
                self.push_event(at, target, signal);
            }
            delivered += 1;
        }
        delivered
    }

    /// Delivers one event to its target process, collecting any newly
    /// scheduled events into `pending` (which must be empty on entry).
    fn dispatch(
        &mut self,
        event: Scheduled,
        sink: &mut dyn TraceSink,
        pending: &mut Vec<(SimTime, ProcessId, Signal)>,
    ) {
        debug_assert!(event.at >= self.now, "time went backwards");
        self.now = event.at;

        let slot = event.target.0;
        let mut process = self.processes[slot]
            .take()
            .expect("signal delivered to a process that is mid-dispatch");
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: event.target,
                queues: &mut self.queues,
                rng: &mut self.rng,
                sink,
                pending,
            };
            process.on_signal(event.signal, &mut ctx);
        }
        self.processes[slot] = Some(process);
    }

    /// True if no events are waiting to be delivered.
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }

    /// Read-only access to the queue table (for assertions in tests and for
    /// post-run inspection by the runtime).
    pub fn queues(&self) -> &QueueTable {
        &self.queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NullSink, VecSink};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Producer pushes `count` items with `gap` between them, then closes.
    struct Producer {
        q: QueueId,
        next: u64,
        count: u64,
        gap: SimDuration,
    }

    impl Process for Producer {
        fn on_signal(&mut self, sig: Signal, ctx: &mut Ctx<'_>) {
            match sig {
                Signal::Start | Signal::Timer(_) | Signal::QueueReady(_) => loop {
                    if self.next == self.count {
                        ctx.close_queue(self.q);
                        return;
                    }
                    match ctx.try_push(self.q, self.next) {
                        PushOutcome::Stored => {
                            self.next += 1;
                            if !self.gap.is_zero() {
                                ctx.schedule_in(self.gap, 0);
                                return;
                            }
                        }
                        PushOutcome::WouldBlock => return,
                    }
                },
                Signal::Poke(_) => {}
            }
        }
    }

    /// Consumer pops every item, taking `service` per item, recording order.
    struct Consumer {
        q: QueueId,
        service: SimDuration,
        seen: Rc<RefCell<Vec<u64>>>,
        done_at: Rc<RefCell<Option<SimTime>>>,
        busy: bool,
    }

    impl Process for Consumer {
        fn on_signal(&mut self, sig: Signal, ctx: &mut Ctx<'_>) {
            if matches!(sig, Signal::Timer(_)) {
                self.busy = false;
            }
            if self.busy {
                return;
            }
            match ctx.try_pop(self.q) {
                PopOutcome::Item(v) => {
                    self.seen.borrow_mut().push(v);
                    self.busy = true;
                    ctx.schedule_in(self.service, 0);
                }
                PopOutcome::WouldBlock => {}
                PopOutcome::Closed => {
                    *self.done_at.borrow_mut() = Some(ctx.now());
                }
            }
        }
    }

    fn pipeline(items: u64, cap: usize, gap_us: u64, service_us: u64) -> (Vec<u64>, SimTime) {
        let mut engine = Engine::new(1);
        let q = engine.create_queue(cap);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let done = Rc::new(RefCell::new(None));
        let producer = engine.add_process(Box::new(Producer {
            q,
            next: 0,
            count: items,
            gap: SimDuration::from_micros(gap_us),
        }));
        let consumer = engine.add_process(Box::new(Consumer {
            q,
            service: SimDuration::from_micros(service_us),
            seen: seen.clone(),
            done_at: done.clone(),
            busy: false,
        }));
        engine.start(producer);
        engine.start(consumer);
        engine.run(&mut NullSink);
        let done_at = done.borrow().expect("consumer should observe close");
        let seen = seen.borrow().clone();
        (seen, done_at)
    }

    #[test]
    fn items_flow_in_order() {
        let (seen, _) = pipeline(10, 4, 0, 5);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn consumer_bound_pipeline_finishes_at_service_rate() {
        // Producer instantaneous, consumer 10us/item, 8 items: last pop at
        // 7 * 10us (pops happen as soon as the consumer frees up).
        let (seen, done_at) = pipeline(8, 2, 0, 10);
        assert_eq!(seen.len(), 8);
        assert_eq!(done_at.as_micros(), 80);
    }

    #[test]
    fn producer_bound_pipeline_finishes_at_production_rate() {
        // Producer 20us/item, consumer 1us/item: close happens after the
        // last item is produced at 8*20 = 160us (gap scheduled after each
        // push, including the last).
        let (seen, done_at) = pipeline(8, 4, 20, 1);
        assert_eq!(seen.len(), 8);
        assert_eq!(done_at.as_micros(), 160);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = pipeline(50, 3, 7, 11);
        let b = pipeline(50, 3, 7, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn run_until_deadline_pauses_and_resumes() {
        let mut engine = Engine::new(1);
        let q = engine.create_queue(64);
        let producer = engine.add_process(Box::new(Producer {
            q,
            next: 0,
            count: 10,
            gap: SimDuration::from_micros(10),
        }));
        engine.start(producer);
        engine.run_until(Some(SimTime::from_micros(35)), &mut NullSink);
        // Items at t=0,10,20,30 pushed so far.
        assert_eq!(engine.queues().len(q), 4);
        assert!(!engine.is_idle());
        engine.run(&mut NullSink);
        assert_eq!(engine.queues().len(q), 10);
        assert!(engine.is_idle());
    }

    /// A process that emits a trace event on start.
    struct Emitter;
    impl Process for Emitter {
        fn on_signal(&mut self, _sig: Signal, ctx: &mut Ctx<'_>) {
            let now = ctx.now();
            ctx.emit(TraceEvent {
                op: crate::trace::OpId(0),
                track: crate::trace::Track::Host,
                start: now,
                dur: SimDuration::from_micros(4),
                mxu_dur: SimDuration::ZERO,
                step: None,
            });
            ctx.mark_step(1);
        }
    }

    #[test]
    fn ctx_routes_trace_events_to_sink() {
        let mut engine = Engine::new(0);
        let p = engine.add_process(Box::new(Emitter));
        engine.start(p);
        let mut sink = VecSink::new();
        engine.run(&mut sink);
        assert_eq!(sink.events.len(), 1);
        assert_eq!(sink.steps, vec![(1, SimTime::ZERO)]);
    }

    #[test]
    fn wake_delivers_poke() {
        struct Waker {
            other: Option<ProcessId>,
        }
        impl Process for Waker {
            fn on_signal(&mut self, _sig: Signal, ctx: &mut Ctx<'_>) {
                if let Some(other) = self.other.take() {
                    ctx.wake(other, 99);
                }
            }
        }
        struct Listener {
            got: Rc<RefCell<Option<u64>>>,
        }
        impl Process for Listener {
            fn on_signal(&mut self, sig: Signal, _ctx: &mut Ctx<'_>) {
                if let Signal::Poke(tag) = sig {
                    *self.got.borrow_mut() = Some(tag);
                }
            }
        }
        let mut engine = Engine::new(0);
        let got = Rc::new(RefCell::new(None));
        let listener = engine.add_process(Box::new(Listener { got: got.clone() }));
        let waker = engine.add_process(Box::new(Waker {
            other: Some(listener),
        }));
        engine.start(waker);
        engine.run(&mut NullSink);
        assert_eq!(*got.borrow(), Some(99));
    }

    #[test]
    fn event_count_is_reported() {
        let mut engine = Engine::new(0);
        let p = engine.add_process(Box::new(Emitter));
        engine.start(p);
        assert_eq!(engine.run(&mut NullSink), 1);
        assert_eq!(engine.run(&mut NullSink), 0);
    }
}
