//! Threaded message-passing runtime for the SCEC protocol.
//!
//! The paper's math treats devices as functions; real edge deployments
//! are processes exchanging messages. This crate runs the four-step
//! protocol over **actual concurrency**: each edge device is an OS thread
//! owning its coded share, connected to the user by `std` channels,
//! speaking a typed [`message`] protocol.
//!
//! There is one query path. [`Cluster`] runs it — launch, broadcast,
//! collect, account, decode, shut down, with pipelined concurrent
//! requests correlated by id — for any [`CodeScheme`], the trait that
//! carries the three things codes differ in: share layout, which answer
//! sets suffice, and the decoder (table in [`scheme`]). Its aliases are
//! the clusters by name:
//!
//! * [`LocalCluster`] — the base protocol: install shares, fan a query
//!   out, wait for *all* partials, decode with `m` subtractions.
//! * [`StragglerCluster`] — the straggler-tolerant variant from
//!   [`scec_coding::straggler`]: responses carry global row tags, the
//!   user decodes as soon as **any** `m + r` rows arrive, and slow
//!   devices (simulated with per-device artificial delays) are simply
//!   left behind.
//! * [`TPrivateCluster`] — the collusion-resistant `t`-private variant.
//!
//! [`SupervisedCluster`] is the fault-tolerant layer over the quorum
//! code: per-device health tracking, per-query retry with exponential
//! backoff and jitter, Freivalds-based Byzantine quarantine, and
//! automatic repair (re-allocation over the surviving fleet + share
//! re-install) when a device dies or is quarantined. The device side of
//! every one of them — and of `scec-serve`'s TCP server — is
//! [`device::Device`].
//!
//! # Supervisor state machine
//!
//! The supervisor tracks each physical device through the lifecycle
//!
//! ```text
//!             consecutive misses        misses >= evict_after
//!   Healthy ---------------------> Suspect ----------------> Dead
//!      |  ^                           |                        |
//!      |  '--- responds in time ------'                        |
//!      |                                                       v
//!      |  failed Freivalds partial                     [repair: re-run
//!      '----------------------------> Quarantined ---> TA allocation on
//!                                                      survivors, re-
//!                                                      encode, reinstall]
//! ```
//!
//! A device that misses a quorum accumulates consecutive misses and is
//! *suspected* after `suspect_after` of them; at `evict_after` it is
//! declared **dead**. A device whose tagged partial fails its per-device
//! Freivalds check is **quarantined** immediately. Either way the next
//! query first *repairs* the fleet: the TA-1 allocation is re-run over
//! the surviving devices' unit costs, a fresh straggler code is built,
//! and new coded shares are hot-installed on a fresh set of actors —
//! subsequent queries run at full strength on the repaired topology.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use scec_core::{AllocationStrategy, ScecSystem};
//! use scec_allocation::EdgeFleet;
//! use scec_linalg::{Fp61, Matrix, Vector};
//! use scec_runtime::LocalCluster;
//!
//! let mut rng = StdRng::seed_from_u64(9);
//! let a = Matrix::<Fp61>::random(6, 4, &mut rng);
//! let fleet = EdgeFleet::from_unit_costs(vec![1.0, 2.0, 3.0])?;
//! let system = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut rng)?;
//!
//! let cluster = LocalCluster::launch(&system, &mut rng)?;
//! let x = Vector::<Fp61>::random(4, &mut rng);
//! let y = cluster.query(&x)?;          // devices run on real threads
//! assert_eq!(y, a.matvec(&x)?);
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod device;
pub mod error;
pub mod latency;
mod mailbox;
pub mod message;
pub mod pipeline;
pub mod scheme;
pub mod supervisor;
mod telemetry;
pub mod transport;

use std::time::Duration;

/// Default per-query deadline shared by every cluster flavor; override
/// per cluster with `with_deadline` at launch or `set_timeout` later.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(10);

pub use clock::{Clock, RealClock, SimClock};
pub use cluster::{Cluster, LocalCluster, QueryStats, StragglerCluster, TPrivateCluster};
pub use device::DeviceBehavior;
pub use error::{Error, Result};
pub use latency::LatencyLog;
pub use pipeline::{PanelPipeline, PanelQuery, PanelTicket, PipelinedQuery, QueryPipeline, Ticket};
pub use scheme::{CodeScheme, QuorumResult};
pub use supervisor::{
    DeviceHealth, DeviceState, SupervisedCluster, SupervisedResult, SupervisedTicket,
    SupervisorConfig, SupervisorEvent,
};
pub use transport::{ChannelTransport, SimLinkTransport, Transport};

// Telemetry types, re-exported so `with_telemetry` callers need no
// direct scec-telemetry dependency.
pub use scec_telemetry::{
    CostReport, CostVector, MetricsSnapshot, Stage, Telemetry, TraceEvent, Verbosity,
    MESSAGE_OVERHEAD_BYTES,
};
