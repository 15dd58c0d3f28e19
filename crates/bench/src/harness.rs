//! Shared experiment machinery.
//!
//! Every paper exhibit (see [`crate::exhibits`]) runs the same recorded
//! operation trace against the five storage architectures of §4.4 —
//! FusionIO (pure SSD), RAID0, Dedup, LRU, and I-CASH — under identical
//! driver settings.
//!
//! ## Execution model
//!
//! Each (system × workload) pair is one independent **cell**: it owns its
//! entire simulated world (devices, RNG streams, virtual clock), so cells
//! can run on any worker thread in any order and still produce bit-identical
//! results. [`run_plan`] flattens all requested cells into one job list and
//! executes it on a [`std::thread::scope`] pool sized by the
//! `ICASH_THREADS` environment variable (default: available parallelism).
//! A determinism regression test (`tests/determinism.rs`) holds that
//! parallel and sequential replays serialize identically.
//!
//! ## Tracing
//!
//! Every binary built on [`run_plan`] accepts
//! `--trace <path>` (or the `ICASH_TRACE` environment variable): each cell
//! then records its structured event stream into a [`JsonlSink`] and the
//! cells are concatenated — each under a `{"cell":...}` header line — into
//! one JSONL artifact readable by the `trace_profile` binary. Without the
//! flag no tracer is attached anywhere, so the run (and its emitted JSON)
//! is byte-identical to a build without this feature.

use icash_core::{Icash, IcashConfig};
use icash_metrics::summary::RunSummary;
use icash_metrics::trace::JsonlSink;
use icash_storage::cpu::CpuModel;
use icash_storage::fault::HealthPolicy;
use icash_storage::queue::QueueConfig;
use icash_storage::shard::ShardRouter;
use icash_storage::system::{IoCtx, StorageSystem, ZeroSource};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceSink, Tracer};
use icash_workloads::content::ContentModel;
use icash_workloads::driver::{run_paced, DriverConfig, OpenLoop, Pacing};
use icash_workloads::replay::ReplayWorkload;
use icash_workloads::scenario::{churn_storm, ScenarioKind, ScenarioSpec};
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::trace::{Trace, TracePlayer};
use icash_workloads::vm::MultiVm;
use icash_workloads::workload::Workload;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The five architectures of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Pure SSD holding the entire data set.
    FusionIo,
    /// Four striped SATA disks.
    Raid0,
    /// Content-addressed SSD cache over one disk.
    Dedup,
    /// LRU SSD cache over one disk.
    Lru,
    /// The I-CASH storage element.
    Icash,
}

impl SystemKind {
    /// All five, in the paper's figure order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::FusionIo,
        SystemKind::Raid0,
        SystemKind::Dedup,
        SystemKind::Lru,
        SystemKind::Icash,
    ];

    /// Builds the system sized for `spec` (baseline caches get exactly the
    /// I-CASH SSD budget; FusionIO gets the whole data set, §4.4). Every
    /// architecture constructs its devices through [`DeviceArray`].
    pub fn build(self, spec: &WorkloadSpec) -> Box<dyn StorageSystem> {
        self.build_with_depth(spec, 1)
    }

    /// [`build`](SystemKind::build) with an explicit group-commit depth for
    /// the I-CASH write pipeline (the baselines are write-through; the
    /// depth does not apply to them). Depth 1 is the classic synchronous
    /// cycle.
    pub fn build_with_depth(self, spec: &WorkloadSpec, depth: u64) -> Box<dyn StorageSystem> {
        self.build_with_options(spec, depth, None, None)
    }

    /// [`build_with_depth`](SystemKind::build_with_depth) with an optional
    /// device-health policy and an optional device command-queue config for
    /// the I-CASH controller (`ICASH_HEALTH` / `ICASH_QUEUE_DEPTH`; the
    /// baselines have neither and ignore both). `None`/`None` builds the
    /// plain controller, byte-identical to pre-health, pre-queue outputs.
    pub fn build_with_options(
        self,
        spec: &WorkloadSpec,
        depth: u64,
        health: Option<HealthPolicy>,
        queue: Option<QueueConfig>,
    ) -> Box<dyn StorageSystem> {
        use icash_baselines::{DedupCache, LruCache, PureSsd, Raid0};
        match self {
            SystemKind::FusionIo => Box::new(PureSsd::new(spec.data_bytes).timing_only()),
            SystemKind::Raid0 => Box::new(Raid0::new(spec.data_bytes, 4).timing_only()),
            SystemKind::Dedup => {
                Box::new(DedupCache::new(spec.ssd_bytes, spec.data_bytes).timing_only())
            }
            SystemKind::Lru => {
                Box::new(LruCache::new(spec.ssd_bytes, spec.data_bytes).timing_only())
            }
            SystemKind::Icash => {
                let mut builder =
                    IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes)
                        .group_commit_depth(depth);
                if let Some(policy) = health {
                    builder = builder.health(policy);
                }
                if let Some(q) = queue {
                    builder = builder.queue(q);
                }
                Box::new(Icash::new(builder.build()))
            }
        }
    }

    /// [`build_with_depth`](SystemKind::build_with_depth) striped across
    /// `shards` independent controllers behind a [`ShardRouter`]. Each
    /// shard is a complete small system built from the spec's
    /// [`shard_slice`](WorkloadSpec::shard_slice), so the aggregate
    /// hardware budget matches the unsharded build. At `shards == 1` this
    /// returns the bare (unwrapped) system — existing golden fixtures stay
    /// untouched by construction.
    pub fn build_sharded(
        self,
        spec: &WorkloadSpec,
        depth: u64,
        shards: u32,
        health: Option<HealthPolicy>,
        queue: Option<QueueConfig>,
    ) -> Box<dyn StorageSystem> {
        if shards <= 1 {
            return self.build_with_options(spec, depth, health, queue);
        }
        // Each shard polices its share of the staging budget; divide the
        // global cap so the aggregate bound matches the unsharded build.
        // The queue depth is per device, so every shard keeps it whole.
        let health = health.map(|mut policy| {
            if policy.staging_cap > 0 {
                policy.staging_cap = (policy.staging_cap / shards as u64).max(1);
            }
            policy
        });
        let slice = spec.shard_slice(shards);
        let systems: Vec<Box<dyn StorageSystem>> = (0..shards)
            .map(|_| self.build_with_options(&slice, depth, health, queue))
            .collect();
        Box::new(ShardRouter::new(systems))
    }
}

/// Settings for one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Operations issued per system.
    pub ops: u64,
    /// Closed-loop clients.
    pub clients: u32,
    /// RNG seed (trace + content).
    pub seed: u64,
    /// Group-commit depth for I-CASH's write pipeline (1 = the classic
    /// synchronous cycle; outputs at 1 are byte-identical to pre-pipeline).
    pub group_commit_depth: u64,
    /// Exercise the ticket barrier API (`sync`) after each measured cell
    /// and assert the durability watermark caught acceptance.
    pub flush_ticket: bool,
    /// Independent controllers the block space is striped across (the
    /// [`ShardRouter`] width). 1 = the bare unsharded system,
    /// byte-identical to pre-sharding outputs.
    pub shards: u32,
    /// Device-health policy for I-CASH cells (`ICASH_HEALTH` plus its
    /// tuning knobs). `None` — the default — builds the health-free
    /// controller, byte-identical to pre-health outputs.
    pub health: Option<HealthPolicy>,
    /// Device command-queue config for I-CASH cells (`ICASH_QUEUE_DEPTH` /
    /// `ICASH_HDD_SCHED`). `None` — the default — installs no queues,
    /// byte-identical to pre-queue outputs.
    pub queue: Option<QueueConfig>,
    /// Scenario driver for every cell (`ICASH_SCENARIO` / `ICASH_ARRIVAL`):
    /// block-trace replay, open-loop arrivals, or a tenant-churn storm.
    /// `None` — the default — runs the plain closed loop, byte-identical
    /// to pre-scenario outputs.
    pub scenario: Option<ScenarioSpec>,
}

impl ExperimentConfig {
    /// A config scaled for quick runs: the workload's `default_ops`.
    pub fn quick(spec: &WorkloadSpec) -> Self {
        ExperimentConfig {
            ops: spec.default_ops,
            clients: spec.clients,
            seed: 0x1CA5_4001,
            group_commit_depth: 1,
            flush_ticket: false,
            shards: 1,
            health: None,
            queue: None,
            scenario: None,
        }
    }

    /// Honours `ICASH_OPS` / `ICASH_FULL=1` environment overrides — plus
    /// the pipeline knobs `ICASH_GROUP_COMMIT` / `ICASH_FLUSH_TICKET` and
    /// the sharding knob `ICASH_SHARDS` — so the same binaries drive quick
    /// checks, full reproductions, pipeline and scaling experiments.
    ///
    /// # Panics
    ///
    /// Panics with a clear message when an override is malformed:
    /// `ICASH_OPS` must parse as a positive integer, and `ICASH_FULL` (when
    /// set) must be `0` or `1`. A typo'd override silently falling back to
    /// quick mode would invalidate a "full reproduction" run. The pipeline
    /// knobs inherit their strictness from [`crate::cli`].
    pub fn from_env(spec: &WorkloadSpec) -> Self {
        let mut cfg = Self::quick(spec);
        if let Ok(full) = std::env::var("ICASH_FULL") {
            match full.as_str() {
                "1" => cfg.ops = spec.table4_ops(),
                "0" | "" => {}
                other => {
                    panic!("invalid ICASH_FULL={other:?}: expected \"1\" (full run) or \"0\"/unset")
                }
            }
        }
        cfg.ops = crate::cli::ops_from_env(cfg.ops);
        cfg.group_commit_depth = crate::cli::group_commit_depth_from_env();
        cfg.flush_ticket = crate::cli::flush_ticket_from_env();
        cfg.shards = crate::cli::shards_from_env();
        cfg.health = crate::cli::health_from_env();
        cfg.queue = crate::cli::queue_from_env();
        cfg.scenario = crate::cli::scenario_from_env();
        cfg
    }
}

// ----------------------------------------------------------------------
// The worker pool
// ----------------------------------------------------------------------

/// Worker-thread count: `ICASH_THREADS` if set, else available parallelism,
/// clamped to the number of jobs.
///
/// # Panics
///
/// Panics when `ICASH_THREADS` is set but is not a positive integer.
pub fn worker_count(jobs: usize) -> usize {
    let configured = match std::env::var("ICASH_THREADS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(0) | Err(_) => {
                panic!("invalid ICASH_THREADS={v:?}: expected a positive integer thread count")
            }
            Ok(n) => n,
        },
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    configured.max(1).min(jobs.max(1))
}

/// Runs `jobs` on a scoped worker pool and returns their results in job
/// order. Workers pull the next job index from a shared atomic counter, so
/// scheduling is dynamic but the output order (and, because every job is a
/// self-contained simulation, every result) is deterministic. Public so
/// campaign binaries (`run_scale`) can run their per-shard replays on the
/// same pool with the same determinism contract.
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = worker_count(jobs.len());
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("job slot")
                    .take()
                    .expect("job taken once");
                let result = job();
                *results[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result lock").expect("job ran"))
        .collect()
}

// ----------------------------------------------------------------------
// Planning and running cells
// ----------------------------------------------------------------------

/// One workload an exhibit wants run against all five systems.
#[derive(Debug)]
pub enum PlannedWorkload {
    /// A single-machine workload generated from the spec itself.
    Standard(WorkloadSpec),
    /// A five-VM consolidation workload (Figures 15-16): the constructor
    /// builds the aggregate from a seed; the spec is rescaled per
    /// environment before VM construction.
    MultiVm(fn(u64) -> MultiVm),
}

impl PlannedWorkload {
    /// The unscaled spec: the paper's Table 4 configuration of the
    /// workload (for a five-VM plan, the aggregate's).
    pub fn spec(&self) -> WorkloadSpec {
        match self {
            PlannedWorkload::Standard(spec) => spec.clone(),
            PlannedWorkload::MultiVm(make) => make(0).spec().clone(),
        }
    }
}

/// A recorded, scaled workload ready to fan out into five cells.
struct PreparedWorkload {
    spec: WorkloadSpec,
    cfg: ExperimentConfig,
    trace: Trace,
    universe: Vec<(u8, u64)>,
}

fn prepare(plan: &PlannedWorkload) -> PreparedWorkload {
    prepare_with(plan, ExperimentConfig::from_env(&plan.spec()))
}

/// Scales `plan` to `cfg` and records the op stream its cells replay.
fn prepare_with(plan: &PlannedWorkload, cfg: ExperimentConfig) -> PreparedWorkload {
    let spec = plan.spec().scaled_to_ops(cfg.ops);
    eprintln!(
        "running {}: {} ops x 5 systems ({} clients, data {} MB, ssd {} MB)",
        spec.name,
        cfg.ops,
        cfg.clients,
        spec.data_bytes >> 20,
        spec.ssd_bytes >> 20
    );
    let mut source: Box<dyn Workload> = match plan {
        PlannedWorkload::Standard(_) => {
            Box::new(icash_workloads::MixedWorkload::new(spec.clone(), cfg.seed))
        }
        PlannedWorkload::MultiVm(make) => {
            Box::new(icash_workloads::vm::rescale(*make, cfg.seed, &spec))
        }
    };
    let universe = source.address_universe();
    let trace = Trace::record(source.as_mut(), cfg.ops);
    PreparedWorkload {
        spec,
        cfg,
        trace,
        universe,
    }
}

/// The in-repo MSR-Cambridge-style fixture `ICASH_SCENARIO=replay` cells
/// replay (also the golden-replay test's input, so the harness and the
/// test pin the same 64 events).
pub const MSR_FIXTURE: &str = include_str!("../../workloads/tests/golden/msr_sample.csv");

/// Mean inter-arrival gap of open-loop scenario cells. Chosen against the
/// simulated device service times so the stationary shape stays mostly
/// un-queued while the 16× flash-crowd bursts visibly overload the array —
/// the contrast the scenario campaign asserts on.
pub const OPEN_LOOP_BASE_GAP: Ns = Ns::from_us(200);

/// Runs one prepared cell: build the system, replay the trace, time it.
/// A scenario only changes the workload (MSR replay, churn storm), the
/// spec the system is sized for (a storm brings its own) and the pacing
/// (open-loop arrivals); every cell then takes the same path. When
/// `traced` is false no sink is attached at all — the simulated run is
/// exactly the untraced one, which is what keeps `--trace`-less output
/// byte-identical.
fn run_cell_inner(
    kind: SystemKind,
    prep: &PreparedWorkload,
    traced: bool,
) -> (RunSummary, Option<String>) {
    let wall_start = Instant::now();
    let (mut workload, sys_spec): (Box<dyn Workload>, WorkloadSpec) =
        match prep.cfg.scenario.map(|sc| sc.kind) {
            Some(ScenarioKind::Replay) => (
                Box::new(
                    ReplayWorkload::from_csv(prep.spec.clone(), MSR_FIXTURE)
                        .expect("in-repo MSR fixture parses"),
                ),
                prep.spec.clone(),
            ),
            Some(ScenarioKind::Churn) => {
                let storm = churn_storm(prep.cfg.seed, prep.cfg.ops);
                let spec = storm.spec().clone();
                (Box::new(storm), spec)
            }
            None | Some(ScenarioKind::OpenLoop) => (
                Box::new(
                    TracePlayer::new(prep.spec.clone(), prep.trace.clone())
                        .with_universe(prep.universe.clone()),
                ),
                prep.spec.clone(),
            ),
        };
    let mut system = kind.build_sharded(
        &sys_spec,
        prep.cfg.group_commit_depth,
        prep.cfg.shards,
        prep.cfg.health,
        prep.cfg.queue,
    );
    let sink = traced.then(|| attach_jsonl(system.as_mut()));
    let pacing = match prep.cfg.scenario {
        Some(sc) if sc.kind == ScenarioKind::OpenLoop => Pacing::Open(OpenLoop {
            arrival: sc.arrival.config(OPEN_LOOP_BASE_GAP),
            seed: prep.cfg.seed,
            // The dispatcher shares the cell's sink so `OpenLoopArrival`
            // events land in the same JSONL stream as the device events.
            tracer: sink.as_ref().map_or_else(Tracer::disabled, |s| {
                Tracer::to_sink(s.clone() as Arc<Mutex<dyn TraceSink + Send>>)
            }),
        }),
        _ => Pacing::Closed,
    };
    let mut model = ContentModel::new(prep.cfg.seed, sys_spec.profile.clone());
    let driver = DriverConfig {
        clients: prep.cfg.clients,
        ops: prep.cfg.ops,
        warmup_ops: prep.cfg.ops / 4,
        verify: false,
        guest_cache: false,
        cpu: None,
    };
    let (mut summary, _) = run_paced(
        system.as_mut(),
        workload.as_mut(),
        &mut model,
        &driver,
        &pacing,
    );
    summary.wall_ns = wall_start.elapsed().as_nanos() as u64;
    if prep.cfg.flush_ticket || prep.cfg.group_commit_depth > 1 || prep.cfg.shards > 1 {
        // Exercise the ticket barrier across every architecture: a full
        // sync after the measured run, after which no ticket may remain in
        // flight. Gated off by default so default outputs stay
        // byte-identical to the pre-pipeline harness.
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let _ = system.sync(Ns::ZERO, &mut ctx);
        assert_eq!(
            system.flushed_ticket(),
            system.write_ticket(),
            "{}: sync left tickets in flight",
            summary.system
        );
    }
    drop(system);
    let text = sink.map(|s| s.lock().expect("trace sink").take_text());
    (summary, text)
}

// ----------------------------------------------------------------------
// Trace capture
// ----------------------------------------------------------------------

/// Installs a fresh [`JsonlSink`]-backed tracer on `system` and returns a
/// handle to the sink so the caller can collect the document after the run.
pub fn attach_jsonl(system: &mut dyn StorageSystem) -> Arc<Mutex<JsonlSink>> {
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    system.set_tracer(Tracer::to_sink(
        sink.clone() as Arc<Mutex<dyn TraceSink + Send>>
    ));
    sink
}

/// Writes traced results to `path` as one multi-cell JSONL document: each
/// cell is a `{"cell":{...}}` header line followed by that cell's events.
fn write_trace_artifact(path: &Path, results: &TracedResults) {
    let mut doc = String::new();
    for (spec, cells) in results {
        for (summary, text) in cells {
            doc.push_str(&format!(
                "{{\"cell\":{{\"workload\":\"{}\",\"system\":\"{}\"}}}}\n",
                spec.name, summary.system
            ));
            if let Some(text) = text {
                doc.push_str(text);
            }
        }
    }
    match std::fs::write(path, &doc) {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(err) => eprintln!("failed to write trace {}: {err}", path.display()),
    }
}

/// Runs every planned workload against all five systems, with all
/// (system × workload) cells sharing one worker pool — so a slow cell in
/// one workload overlaps with cells of every other workload. Returns, per
/// plan in order, the scaled spec and the five summaries in
/// [`SystemKind::ALL`] order.
pub fn run_plan(plans: &[PlannedWorkload]) -> Vec<(WorkloadSpec, Vec<RunSummary>)> {
    let trace_path = crate::cli::trace_path_from_args();
    let results = run_plan_inner(plans, trace_path.is_some());
    if let Some(path) = trace_path {
        write_trace_artifact(&path, &results);
    }
    strip_traces(results)
}

/// [`run_plan`] with tracing forced on: every cell additionally returns
/// its JSONL event document. The determinism and oracle suites diff these
/// across thread counts and against the summaries.
pub fn run_plan_traced(
    plans: &[PlannedWorkload],
) -> Vec<(WorkloadSpec, Vec<(RunSummary, String)>)> {
    run_plan_inner(plans, true)
        .into_iter()
        .map(|(spec, cells)| {
            let cells = cells
                .into_iter()
                .map(|(summary, text)| (summary, text.expect("traced run")))
                .collect();
            (spec, cells)
        })
        .collect()
}

type TracedResults = Vec<(WorkloadSpec, Vec<(RunSummary, Option<String>)>)>;

fn strip_traces(results: TracedResults) -> Vec<(WorkloadSpec, Vec<RunSummary>)> {
    results
        .into_iter()
        .map(|(spec, cells)| (spec, cells.into_iter().map(|(s, _)| s).collect()))
        .collect()
}

fn run_plan_inner(plans: &[PlannedWorkload], traced: bool) -> TracedResults {
    run_prepared(plans.iter().map(prepare).collect(), traced)
}

fn run_prepared(prepared: Vec<PreparedWorkload>, traced: bool) -> TracedResults {
    let jobs: Vec<_> = prepared
        .iter()
        .flat_map(|prep| SystemKind::ALL.iter().map(move |&kind| (kind, prep)))
        .map(|(kind, prep)| move || run_cell_inner(kind, prep, traced))
        .collect();
    let mut results = run_jobs(jobs).into_iter();
    prepared
        .into_iter()
        .map(|prep| {
            let cells: Vec<(RunSummary, Option<String>)> = SystemKind::ALL
                .iter()
                .map(|_| results.next().expect("cell ran"))
                .collect();
            (prep.spec, cells)
        })
        .collect()
}

/// Formats the per-cell instrumentation table: ops replayed, virtual time
/// advanced, host wall time, and replay throughput for every
/// (workload × system) cell, plus a totals row.
pub fn cell_table(results: &[(WorkloadSpec, Vec<RunSummary>)]) -> String {
    let mut out = String::from(
        "| Workload | System | Ops replayed | Virtual time | Wall time | Replay rate |\n\
         |---|---|---:|---:|---:|---:|\n",
    );
    let mut total_ops = 0u64;
    let mut total_wall_ns = 0u64;
    for (spec, summaries) in results {
        for s in summaries {
            let wall_s = s.wall_ns as f64 / 1e9;
            let rate = if s.wall_ns == 0 {
                0.0
            } else {
                s.ops as f64 / wall_s
            };
            out.push_str(&format!(
                "| {} | {} | {} | {:.2} s | {:.3} s | {:.0} ops/s |\n",
                spec.name,
                s.system,
                s.ops,
                s.elapsed.as_secs_f64(),
                wall_s,
                rate
            ));
            total_ops += s.ops;
            total_wall_ns += s.wall_ns;
        }
    }
    out.push_str(&format!(
        "\n{} cells, {} ops replayed, {:.3} s of cell wall time ({} workers)\n",
        results.iter().map(|(_, s)| s.len()).sum::<usize>(),
        total_ops,
        total_wall_ns as f64 / 1e9,
        worker_count(usize::MAX),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_workloads::sysbench;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that mutate process-global environment variables.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn env_guard() -> MutexGuard<'static, ()> {
        ENV_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs SysBench on all five systems under an explicit `cfg`.
    fn run_sysbench(cfg: ExperimentConfig, traced: bool) -> Vec<(RunSummary, Option<String>)> {
        let plan = PlannedWorkload::Standard(sysbench::spec());
        let mut results = run_prepared(vec![prepare_with(&plan, cfg)], traced);
        results.pop().expect("one workload").1
    }

    fn cfg(ops: u64, clients: u32) -> ExperimentConfig {
        ExperimentConfig {
            ops,
            clients,
            seed: 7,
            ..ExperimentConfig::quick(&sysbench::spec())
        }
    }

    #[test]
    fn five_systems_run_one_small_workload() {
        let cells = run_sysbench(cfg(2_000, 8), false);
        let names: Vec<&str> = cells.iter().map(|(s, _)| s.system.as_str()).collect();
        assert_eq!(names, vec!["FusionIO", "RAID0", "Dedup", "LRU", "I-CASH"]);
        for (s, text) in &cells {
            assert_eq!(s.ops, 2_000);
            assert!(s.elapsed.as_ns() > 0, "{} did not advance time", s.system);
            assert!(s.wall_ns > 0, "{} cell was not wall-timed", s.system);
            assert!(text.is_none(), "{} was traced", s.system);
        }
    }

    #[test]
    fn five_systems_run_sharded() {
        let cells = run_sysbench(
            ExperimentConfig {
                shards: 4,
                ..cfg(1_000, 4)
            },
            false,
        );
        assert_eq!(cells.len(), 5);
        for (s, _) in &cells {
            assert_eq!(s.ops, 1_000);
            assert!(s.elapsed.as_ns() > 0, "{} did not advance time", s.system);
        }
    }

    #[test]
    fn scenario_cells_run_the_ticket_barrier() {
        // Every scenario takes the same cell path as the plain closed loop,
        // so `flush_ticket` syncs after the measured run and the barrier
        // shows up in the cell's trace.
        for kind in ScenarioKind::ALL {
            let cells = run_sysbench(
                ExperimentConfig {
                    flush_ticket: true,
                    scenario: Some(ScenarioSpec {
                        kind,
                        arrival: icash_workloads::scenario::ArrivalShape::Burst,
                    }),
                    ops: 300,
                    ..ExperimentConfig::quick(&sysbench::spec())
                },
                true,
            );
            let (summary, text) = cells.last().expect("five cells");
            assert_eq!(summary.system, "I-CASH");
            assert!(
                text.as_deref()
                    .expect("traced run")
                    .contains("\"kind\":\"barrier\""),
                "{kind:?} cell skipped the post-run barrier"
            );
        }
    }

    #[test]
    fn env_overrides_shards() {
        let _guard = env_guard();
        let spec = sysbench::spec();
        std::env::set_var("ICASH_SHARDS", "8");
        let cfg = ExperimentConfig::from_env(&spec);
        std::env::remove_var("ICASH_SHARDS");
        assert_eq!(cfg.shards, 8);
    }

    #[test]
    fn zero_shards_override_is_rejected() {
        let _guard = env_guard();
        let spec = sysbench::spec();
        std::env::set_var("ICASH_SHARDS", "0");
        let result = std::panic::catch_unwind(|| ExperimentConfig::from_env(&spec));
        std::env::remove_var("ICASH_SHARDS");
        let message = panic_message(result);
        assert!(message.contains("ICASH_SHARDS=0"), "got: {message}");
    }

    #[test]
    fn non_numeric_shards_override_is_rejected() {
        let _guard = env_guard();
        let spec = sysbench::spec();
        std::env::set_var("ICASH_SHARDS", "many");
        let result = std::panic::catch_unwind(|| ExperimentConfig::from_env(&spec));
        std::env::remove_var("ICASH_SHARDS");
        let message = panic_message(result);
        assert!(
            message.contains("ICASH_SHARDS=\"many\"") && message.contains("positive integer"),
            "got: {message}"
        );
    }

    #[test]
    fn env_overrides_ops() {
        let _guard = env_guard();
        let spec = sysbench::spec();
        std::env::set_var("ICASH_OPS", "1234");
        let cfg = ExperimentConfig::from_env(&spec);
        std::env::remove_var("ICASH_OPS");
        assert_eq!(cfg.ops, 1234);
    }

    #[test]
    fn zero_ops_override_is_rejected() {
        let _guard = env_guard();
        let spec = sysbench::spec();
        std::env::set_var("ICASH_OPS", "0");
        let result = std::panic::catch_unwind(|| ExperimentConfig::from_env(&spec));
        std::env::remove_var("ICASH_OPS");
        let message = panic_message(result);
        assert!(message.contains("ICASH_OPS=0"), "got: {message}");
    }

    #[test]
    fn non_numeric_ops_override_is_rejected() {
        let _guard = env_guard();
        let spec = sysbench::spec();
        std::env::set_var("ICASH_OPS", "lots");
        let result = std::panic::catch_unwind(|| ExperimentConfig::from_env(&spec));
        std::env::remove_var("ICASH_OPS");
        let message = panic_message(result);
        assert!(
            message.contains("ICASH_OPS=\"lots\"") && message.contains("positive integer"),
            "got: {message}"
        );
    }

    #[test]
    fn bad_full_flag_is_rejected() {
        let _guard = env_guard();
        let spec = sysbench::spec();
        std::env::set_var("ICASH_FULL", "yes");
        let result = std::panic::catch_unwind(|| ExperimentConfig::from_env(&spec));
        std::env::remove_var("ICASH_FULL");
        let message = panic_message(result);
        assert!(message.contains("ICASH_FULL"), "got: {message}");
    }

    #[test]
    fn bad_thread_count_is_rejected() {
        let _guard = env_guard();
        std::env::set_var("ICASH_THREADS", "0");
        let result = std::panic::catch_unwind(|| worker_count(4));
        std::env::remove_var("ICASH_THREADS");
        let message = panic_message(result);
        assert!(message.contains("ICASH_THREADS"), "got: {message}");
    }

    #[test]
    fn thread_count_is_clamped_to_jobs() {
        let _guard = env_guard();
        std::env::set_var("ICASH_THREADS", "64");
        let n = worker_count(3);
        std::env::remove_var("ICASH_THREADS");
        assert_eq!(n, 3);
    }

    #[test]
    fn pool_preserves_job_order() {
        let jobs: Vec<_> = (0..37).map(|i| move || i * i).collect();
        let results = run_jobs(jobs);
        assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    fn panic_message<T>(result: std::thread::Result<T>) -> String {
        let err = match result {
            Ok(_) => panic!("validation must reject the override"),
            Err(err) => err,
        };
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }
}
