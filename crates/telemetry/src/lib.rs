//! Unified tracing + metrics for the Sense-Aid reproduction.
//!
//! The paper's evaluation is built on *timelines* — Fig 6 is an RRC
//! radio-state timeline, Fig 9 a per-round selection trace — and the
//! production-scale north star needs decisions in one shard to be
//! correlatable with the RRC transition and delivery-envelope retry they
//! caused. This crate provides that observability layer:
//!
//! * **Spans** ([`span`]) keyed by [`SimTime`](senseaid_sim::SimTime) with
//!   typed [`Attr`]ibutes and causal parent links: request → selection
//!   round → per-device tasking → envelope send → RRC transition.
//! * **A sink boundary** ([`sink`]): instrumentation records through a
//!   clonable [`Telemetry`] handle; the default handle is off and costs an
//!   `Option` check per site.
//! * **A unified registry** ([`registry`]): [`RegistrySnapshot`] absorbs
//!   `ServerStats`, per-client drop stats and raw sample sets behind one
//!   serializable view.
//! * **Exporters** ([`export`]): deterministic JSONL and Chrome Trace
//!   Event format — `senseaid trace fig06 --out trace.json` loads directly
//!   in Perfetto, with shards as process lanes and devices as threads.
//! * **A compatibility bridge** ([`compat`]) for replaying legacy
//!   `TraceLog` streams into the span stream.
//!
//! Everything is deterministic: ids allocate densely in recording order,
//! maps are `BTreeMap`s, and the exporters write events exactly in the
//! order recorded, so output for a fixed seed is byte-identical across
//! runs and `SENSEAID_WORKERS` settings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compat;
pub mod export;
pub mod registry;
pub mod sink;
pub mod span;

pub use export::{to_chrome_trace, to_jsonl};
pub use registry::{HistogramSummary, RegistrySnapshot};
pub use sink::{NoopSink, RecordingSink, Sink, Telemetry};
pub use span::{check_balanced, Attr, AttrValue, Event, Lane, SpanId};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;
    use senseaid_sim::SimTime;

    use crate::span::check_balanced;
    use crate::{Lane, SpanId, Telemetry};

    proptest! {
        /// Any interleaving of enters, exits, and instants driven through
        /// the handle — with `finish` closing the stragglers — yields a
        /// balanced stream: the handle itself maintains the invariant the
        /// checker verifies.
        #[test]
        fn handle_always_produces_balanced_streams(ops in proptest::collection::vec(0u8..4, 0..64)) {
            let tel = Telemetry::recording();
            let mut stack: Vec<SpanId> = Vec::new();
            let mut now = 0u64;
            for op in ops {
                now += 1;
                let at = SimTime::from_secs(now);
                let parent = stack.last().copied().unwrap_or(SpanId::NONE);
                match op {
                    0 | 1 => stack.push(tel.enter("s", at, Lane::control(0), parent, vec![])),
                    2 => {
                        if let Some(id) = stack.pop() {
                            tel.exit(id, at);
                        }
                    }
                    _ => {
                        tel.instant("i", at, Lane::control(0), parent, vec![]);
                    }
                }
            }
            tel.finish(SimTime::from_secs(now + 1));
            prop_assert_eq!(check_balanced(&tel.events()), Ok(()));
        }
    }
}
