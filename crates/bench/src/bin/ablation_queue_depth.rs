//! Ablation: device command-queue depth.
//!
//! Sweeps the queue depth (plus the queue-off baseline) on the SysBench
//! workload — the same recorded trace replayed at every depth, each cell an
//! independent simulation on the shared worker pool, so the table is
//! bit-identical no matter what `ICASH_THREADS` is. RAM is tightened below
//! the stock spec so eviction pressure produces real spill batches for the
//! HDD's NCQ scheduler to reorder and coalesce, and enough flash churn for
//! the SSD's per-channel queues to defer erases behind host traffic.
//!
//! The headline column is virtual HDD service time per thousand host
//! operations: seek-aware scheduling plus coalescing of adjacent home
//! writes shave positioning costs, so the figure falls as depth grows.
//! With `ICASH_QUEUE_TREND_ASSERT=1` the run fails unless the deepest
//! setting beats queue-off (the CI trajectory gate); `CRITERION_JSON=path`
//! writes the per-depth figures for `bench_diff` against
//! `BENCH_queue.json` — the metric is simulated time, so the comparison is
//! exact, not a host-speed tolerance check.

use icash_core::{Icash, IcashConfig};
use icash_metrics::report::table;
use icash_metrics::summary::RunSummary;
use icash_storage::queue::{QueueConfig, QueuePolicy};
use icash_workloads::content::ContentModel;
use icash_workloads::driver::{run_benchmark, DriverConfig};
use icash_workloads::sysbench;
use icash_workloads::trace::{Trace, TracePlayer};

/// RAM divisor below the stock spec (the SSD keeps its stock budget).
const RAM_DIV: u64 = 8;

/// The sweep: queue-off, then doubling depths under SPTF.
const DEPTHS: [Option<u32>; 7] = [None, Some(1), Some(2), Some(4), Some(8), Some(16), Some(32)];

fn depth_name(depth: Option<u32>) -> String {
    match depth {
        None => "off".to_string(),
        Some(d) => format!("{d}"),
    }
}

/// Virtual HDD service nanoseconds per thousand host operations — the
/// quantity the queue exists to shrink. Deterministic (simulated time).
fn hdd_ns_per_kop(s: &RunSummary) -> f64 {
    let busy = s.report.hdd.as_ref().map_or(0, |d| d.busy.as_ns());
    if s.ops == 0 {
        0.0
    } else {
        busy as f64 * 1000.0 / s.ops as f64
    }
}

fn main() {
    let ops = icash_bench::cli::ops_from_env(40_000);
    let base = match std::env::var("ICASH_ABL_SPEC").as_deref() {
        Ok("loadsim") => icash_workloads::loadsim::spec(),
        Ok("tpcc") => icash_workloads::tpcc::spec(),
        Ok("specsfs") => icash_workloads::specsfs::spec(),
        Ok("hadoop") => icash_workloads::hadoop::spec(),
        Ok("pressure") => sysbench::pressure_spec(),
        Ok("sysbench") | Err(std::env::VarError::NotPresent) => sysbench::spec(),
        Ok(other) => panic!(
            "invalid ICASH_ABL_SPEC={other:?}: expected sysbench, pressure, \
             loadsim, tpcc, specsfs, or hadoop"
        ),
        Err(e) => panic!("invalid ICASH_ABL_SPEC: {e}"),
    };
    let mut spec = base.scaled_to_ops(ops);
    // Tighten RAM below the stock spec: eviction pressure turns into spill
    // batches and home-area reads — the submission streams the device
    // queues schedule.
    spec.ram_bytes = (spec.ram_bytes / RAM_DIV).max(1 << 20);
    spec.ssd_bytes = spec.ssd_bytes.max(1 << 20);
    let mut source = icash_workloads::MixedWorkload::new(spec.clone(), 1);
    let trace = Trace::record(&mut source, ops);

    let jobs: Vec<_> = DEPTHS
        .iter()
        .map(|&depth| {
            let spec = spec.clone();
            let trace = trace.clone();
            move || {
                let mut builder =
                    IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes);
                if let Some(d) = depth {
                    builder = builder.queue(QueueConfig {
                        depth: d,
                        sched: QueuePolicy::Sptf,
                    });
                }
                let mut system = Icash::new(builder.build());
                let mut player = TracePlayer::new(spec.clone(), trace);
                let mut model = ContentModel::new(1, spec.profile.clone());
                let cfg = DriverConfig::new(ops).clients(spec.clients);
                run_benchmark(&mut system, &mut player, &mut model, &cfg)
            }
        })
        .collect();
    let summaries = icash_bench::harness::run_jobs(jobs);

    let mut rows = Vec::new();
    for (&depth, s) in DEPTHS.iter().zip(&summaries) {
        let hdd = s.report.hdd.clone().unwrap_or_default();
        let ssd = s.report.ssd.clone().unwrap_or_default();
        rows.push(vec![
            depth_name(depth),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{}", hdd.writes),
            format!("{}", hdd.reads),
            format!("{}", ssd.erases),
            format!("{:.3}", hdd.busy.as_secs_f64() * 1e3),
            format!("{:.0}", hdd_ns_per_kop(s)),
            format!("{}", hdd.queue_coalesced),
            format!("{}", hdd.queue_reorders),
            format!("{}", ssd.queue_admits),
            format!("{}", ssd.queue_reorders),
        ]);
    }
    print!(
        "{}",
        table(
            "Ablation: device command-queue depth (SysBench, tight RAM; off = strict submission order)",
            &[
                "depth",
                "tx/s",
                "hdd_w",
                "hdd_r",
                "erases",
                "hdd_busy_ms",
                "hdd_ns/kop",
                "coalesced",
                "reorders",
                "ssd_defers",
                "ssd_jumps"
            ],
            &rows,
        )
    );

    if let Ok(path) = std::env::var("CRITERION_JSON") {
        let results: Vec<String> = DEPTHS
            .iter()
            .zip(&summaries)
            .map(|(&depth, s)| {
                format!(
                    "{{\"name\": \"icash_queue/depth_{}\", \"ns_per_iter\": {:.1}}}",
                    depth_name(depth),
                    hdd_ns_per_kop(s)
                )
            })
            .collect();
        std::fs::write(
            &path,
            format!("{{\"results\": [{}]}}\n", results.join(", ")),
        )
        .expect("write CRITERION_JSON");
        eprintln!("bench results written to {path}");
    }

    if let Ok(v) = std::env::var("ICASH_QUEUE_TREND_ASSERT") {
        match v.as_str() {
            "1" => {
                let off = hdd_ns_per_kop(&summaries[0]);
                let deepest = hdd_ns_per_kop(summaries.last().expect("sweep is never empty"));
                eprintln!(
                    "ablation_queue_depth: HDD service {off:.0} ns/kop unqueued vs {deepest:.0} ns/kop at depth 32"
                );
                assert!(
                    deepest < off,
                    "queueing must shrink HDD service per kop: {deepest:.0} vs {off:.0} unqueued"
                );
            }
            "0" | "" => {}
            other => {
                panic!("invalid ICASH_QUEUE_TREND_ASSERT={other:?}: expected \"1\" or \"0\"/unset")
            }
        }
    }
}
