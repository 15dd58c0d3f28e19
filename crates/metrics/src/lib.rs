//! # icash-metrics — measurement and reporting for the I-CASH evaluation
//!
//! * [`summary`] — [`RunSummary`], the complete result of one
//!   (system × workload) run: throughput, latencies, CPU utilization,
//!   SSD write counts (Table 6), and energy (Table 5).
//! * [`report`] — paper-style ASCII figure/table rendering used by the
//!   bench binaries.
//! * [`trace`] — JSONL trace collection ([`trace::JsonlSink`]) and the
//!   per-phase virtual-time breakdown ([`trace::TraceProfile`]) over the
//!   structured event stream of [`icash_storage::trace`].
//!
//! The log-bucketed latency histograms a summary carries (means for
//! Figures 7 and 9, percentiles for the extended analyses) live in
//! [`icash_storage::histogram`], so device stats can carry them too.
//!
//! ```
//! use icash_storage::histogram::LatencyHistogram;
//! use icash_storage::time::Ns;
//!
//! let mut lat = LatencyHistogram::new();
//! lat.record(Ns::from_us(18)); // an I-CASH read: SSD + decode
//! lat.record(Ns::from_us(35)); // a pure-SSD read
//! assert!(lat.mean() > Ns::from_us(20));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod report;
pub mod summary;
pub mod trace;

pub use summary::RunSummary;
pub use trace::{JsonlSink, TraceProfile};
