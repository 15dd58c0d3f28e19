//! # icash-workloads — content-aware workload generation for the I-CASH
//! evaluation
//!
//! "Evaluating the performance of I-CASH is unique in the sense that I/O
//! address traces are not sufficient because deltas are content dependent"
//! (paper §4.4). This crate therefore generates *both* the block access
//! streams and the block *content*:
//!
//! * [`content`] — the content-locality model: family-based similarity,
//!   bounded per-write mutations, unique-block fractions, VM-clone sharing.
//! * [`zipf`] — rejection-inversion Zipf sampling for temporal locality.
//! * [`spec`] / [`workload`] — Table 4 characteristics and the generic
//!   generator built from them.
//! * Per-benchmark modules mirroring Table 3: [`sysbench`], [`hadoop`],
//!   [`tpcc`], [`loadsim`], [`specsfs`], [`rubis`].
//! * [`vm`] — the 5-VM multi-tenant mixers of Figures 15–16.
//! * [`trace`] — record/replay so every system sees an identical stream.
//! * [`driver`] — the closed- and open-loop benchmark driver emitting
//!   [`icash_metrics::RunSummary`]s.
//! * [`history`] — the per-LBA write-history oracle the fault, crash and
//!   device-death campaigns check every read against.
//! * [`replay`] — strict MSR-Cambridge-style CSV block-trace parsing with
//!   the seeded content overlay.
//! * [`arrivals`] — seeded open-loop arrival schedules (diurnal,
//!   flash-crowd bursts) on a deterministic virtual-time event queue.
//! * [`scenario`] — the scenario engine: trace replay, open-loop
//!   arrival shapes, and tenant-churn storms over [`vm`] fleets.
//!
//! ## Example: run SysBench ops against any storage system
//!
//! ```
//! use icash_workloads::content::ContentModel;
//! use icash_workloads::workload::Workload;
//! use icash_workloads::sysbench;
//!
//! let mut wl = sysbench::workload(42);
//! let spec = wl.spec().clone();
//! let mut model = ContentModel::new(42, spec.profile.clone());
//! let op = wl.next_op();
//! assert!(op.lba.offset() < spec.data_blocks());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod content;
pub mod driver;
pub mod hadoop;
pub mod history;
pub mod loadsim;
pub mod replay;
pub mod rubis;
pub mod scenario;
pub mod spec;
pub mod specsfs;
pub mod sysbench;
pub mod tpcc;
pub mod trace;
pub mod vm;
pub mod workload;
pub mod zipf;

pub use content::{ContentModel, ContentProfile};
pub use driver::{run_benchmark, DriverConfig};
pub use spec::WorkloadSpec;
pub use workload::{MixedWorkload, Workload, WorkloadOp};
