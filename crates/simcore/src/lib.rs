//! Deterministic discrete-event simulation engine for the Sense-Aid
//! reproduction.
//!
//! The crate provides four small building blocks used by every other crate
//! in the workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time, so
//!   runs are exactly reproducible regardless of float rounding;
//! * [`EventQueue`] and the [`World`] trait in [`engine`] — a classic
//!   time-ordered event loop with deterministic FIFO tie-breaking;
//! * [`SimRng`] — a seedable random source with labelled stream derivation,
//!   so independent model components draw from independent streams and
//!   adding a draw in one component never perturbs another;
//! * [`trace`] — a timestamped trace log used to regenerate the paper's
//!   figures (plus [`SharedCounter`], the one cross-thread tally the
//!   harness keeps).
//!
//! # Example
//!
//! ```
//! use senseaid_sim::{EventQueue, SimDuration, SimTime, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, now: SimTime, _ev: (), q: &mut EventQueue<()>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             q.schedule(now + SimDuration::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut world = Counter { fired: 0 };
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO, ());
//! let end = senseaid_sim::run(&mut world, &mut q, SimTime::MAX);
//! assert_eq!(world.fired, 10);
//! assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod rng;
pub mod time;
pub mod trace;

pub use engine::{run, run_until, EventQueue, ScheduledEvent, World};
pub use metrics::SharedCounter;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEntry, TraceLog};
