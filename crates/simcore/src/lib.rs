//! # tpupoint-simcore
//!
//! A small, deterministic discrete-event simulation (DES) engine.
//!
//! The TPUPoint reproduction cannot run on real Cloud TPUs, so every
//! higher-level crate (hardware models, the TensorFlow-like runtime, the
//! profiler) is built on top of this engine. The engine provides:
//!
//! * a simulated clock with microsecond resolution ([`SimTime`],
//!   [`SimDuration`]),
//! * an event queue that delivers [`Signal`]s to registered [`Process`]es in
//!   a deterministic order,
//! * bounded FIFO queues with blocking push/pop semantics
//!   ([`queue::QueueTable`]) used to model the host→TPU infeed pipeline,
//! * a trace layer ([`trace`]) that interns operation names and streams
//!   timestamped [`trace::TraceEvent`]s to a [`trace::TraceSink`], and
//! * a seeded random-number helper ([`rng::SimRng`]) so that every run of a
//!   simulation is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use tpupoint_simcore::{Engine, Process, Ctx, Signal, SimDuration};
//!
//! /// A process that fires once, one millisecond after the start signal.
//! struct Ping {
//!     fired: bool,
//! }
//!
//! impl Process for Ping {
//!     fn on_signal(&mut self, sig: Signal, ctx: &mut Ctx<'_>) {
//!         match sig {
//!             Signal::Start => ctx.schedule_in(SimDuration::from_millis(1), 0),
//!             Signal::Timer(0) => self.fired = true,
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(42);
//! let ping = engine.add_process(Box::new(Ping { fired: false }));
//! engine.start(ping);
//! let mut sink = tpupoint_simcore::trace::NullSink;
//! engine.run(&mut sink);
//! assert_eq!(engine.now().as_micros(), 1_000);
//! ```

pub mod engine;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use engine::{Ctx, Engine, Process, ProcessId, Signal};
pub use queue::{PopOutcome, PushOutcome, QueueId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{OpCatalog, OpId, Track};
