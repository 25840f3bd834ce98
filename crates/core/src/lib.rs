//! The Sense-Aid middleware — the paper's primary contribution.
//!
//! Sense-Aid (Middleware '17) is a network-resident service for
//! energy-efficient participatory sensing. This crate implements all three
//! of its components (paper §3):
//!
//! * **[`SenseAidServer`]** — deployed at the cellular edge. Keeps the task
//!   datastore and device datastore, runs the deadline-sorted run/wait
//!   queues, and executes the **device selector**
//!   (`Score(i) = α·E + β·U + γ·(100 − CBL) + φ·TTL`, lower wins, with
//!   hard cutoffs) to pick the *minimum* set of devices satisfying each
//!   request's spatial density.
//! * **[`SenseAidClient`]** — the client-side library
//!   (`register` / `deregister` / `update_preferences` / `start_sensing` /
//!   `send_sense_data`): samples when told to and uploads inside radio
//!   tails, avoiding IDLE→CONNECTED promotions.
//! * **[`AppServer`]** — the server-side library a crowdsensing
//!   application links against (`task` / `update_task_param` /
//!   `delete_task` / `receive_sensed_data`).
//!
//! The two deployment variants are selected by [`Variant`]: *Basic* (tail
//! uploads reset the RRC tail timer — stock protocol) and *Complete*
//! (carrier-cooperative: no reset).
//!
//! # Example
//!
//! ```
//! use senseaid_core::{SenseAidConfig, SenseAidServer, TaskSpec};
//! use senseaid_device::Sensor;
//! use senseaid_geo::{CircleRegion, GeoPoint};
//! use senseaid_sim::{SimDuration, SimTime};
//!
//! let mut server = SenseAidServer::new(SenseAidConfig::default());
//! let task = TaskSpec::builder(Sensor::Barometer)
//!     .region(CircleRegion::new(GeoPoint::new(40.4284, -86.9138), 500.0))
//!     .sampling_period(SimDuration::from_mins(5))
//!     .sampling_duration(SimDuration::from_mins(90))
//!     .spatial_density(2)
//!     .build()?;
//! let task_id = server.submit_task(task, SimTime::ZERO)?;
//! assert_eq!(server.task_count(), 1);
//! # Ok::<(), senseaid_core::SenseAidError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
pub mod adaptive;
pub mod breaker;
pub mod cas;
pub mod client;
pub mod config;
mod coordinator;
pub mod env;
pub mod error;
pub mod persist;
pub mod policy;
pub mod pool;
pub mod privacy;
pub mod queues;
pub mod request;
pub mod runtime;
pub mod scheduler;
pub mod selector;
pub mod server;
mod shard;
pub mod store;
pub mod task;
pub mod validation;

pub use adaptive::{AdaptiveConfig, AdaptiveController};
pub use breaker::{BreakerConfig, BreakerState, DeliveryBreaker};
pub use cas::{AppServer, DeliveredReading};
pub use client::{
    ClientError, ClientState, ClientStats, OutboundBatch, SenseAidClient, UploadDecision,
};
pub use config::{DegradedConfig, SenseAidConfig, Variant};
pub use env::EnvVarError;
pub use error::SenseAidError;
pub use persist::{
    BatchAppended, CodecError, DirStorage, FaultTally, FaultingStorage, MemStorage, PersistConfig,
    PersistError, PersistStats, RecoveryReport, StorageBackend, StorageError, StorageFaultPlan,
};
pub use policy::{
    DeadlineAware, DropLowestDeficit, DropNewest, ScoredPolicy, SelectionPolicy, ShedCandidate,
    ShedPolicy, ShedPolicyKind,
};
pub use pool::ShardPool;
pub use queues::{QueueEntry, RequestQueue};
pub use request::{RejectReason, Request, RequestId, RequestSlot, RequestStatus, ShedReason};
pub use runtime::{
    loopback_pair, Clock, LoopbackTransport, SimClock, Transport, TransportError, WallClock,
};
pub use scheduler::WakeupDriver;
pub use selector::{DeviceSelector, HardCutoffs, InsufficientDevices, SelectFold, SelectorWeights};
pub use server::{
    Assignment, BatchReceipt, ControlSnapshot, DeliveryOutcome, SelectionEvent, SenseAidServer,
    ServerStats,
};
pub use store::device_store::{DeviceRecord, DeviceStore};
pub use store::soa_store::{DeviceSlot, SoaDeviceStore};
pub use store::task_store::{RequestArena, TaskState, TaskStatus, TaskStore};
pub use store::{CandidateRow, DeviceIndex, QualificationProbe};
pub use task::{TaskId, TaskSchedule, TaskSpec, TaskSpecBuilder};
pub use validation::ReadingValidator;
