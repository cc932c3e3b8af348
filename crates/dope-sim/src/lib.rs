//! Discrete-event simulator of the paper's evaluation testbed.
//!
//! The paper evaluates DoPE natively on a 24-core Xeon. This crate
//! provides a faithful *model* of that testbed so the evaluation can be
//! regenerated deterministically on any machine:
//!
//! * [`system`] — the open transaction-serving system behind Figures 2 and
//!   11: Poisson arrivals into a work queue, a pool of hardware contexts,
//!   and two-level `<DoP_outer, DoP_inner>` parallel transactions whose
//!   service times come from calibrated [`profile`]s;
//! * [`pipeline`] — the stage-network model behind Figures 12–15: ferret-
//!   and dedup-style pipelines with per-stage extents, queue occupancies,
//!   task fusion, oversubscription effects, and a rate-limited power
//!   meter.
//!
//! Both models drive the *same* [`Mechanism`](dope_core::Mechanism) trait
//! through the *same* decision step ([`Decider`](dope_core::Decider)) as
//! the live `dope-runtime` executive: a mechanism cannot tell whether its
//! snapshots come from the simulator or from real threads.
//!
//! # Example
//!
//! ```
//! use dope_core::{Mechanism, Resources, StaticMechanism};
//! use dope_sim::profile::AmdahlProfile;
//! use dope_sim::system::{SystemParams, TwoLevelModel};
//! use dope_workload::ArrivalSchedule;
//!
//! // A transaction that takes 10 s sequentially and parallelizes well.
//! let model = TwoLevelModel::doall("price", AmdahlProfile::new(10.0, 0.95, 0.0, 0.05));
//! let mut mech = StaticMechanism::new(model.config_for_width(24, 8));
//! let schedule = ArrivalSchedule::poisson(0.5, 50, 1);
//! let outcome = dope_sim::system::run_system(
//!     &model,
//!     &schedule,
//!     &mut mech,
//!     Resources::threads(24),
//!     &SystemParams::default(),
//! );
//! assert_eq!(outcome.completed, 50);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod observer;
pub mod pipeline;
pub mod profile;
pub mod system;

pub use event::OrdF64;
pub use observer::{NullObserver, SimObserver};
pub use profile::AmdahlProfile;
