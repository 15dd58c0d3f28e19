//! The repository benchmark: host cost and simulated performance of the
//! I-CASH controller on three closed-loop workloads.
//!
//! The benchmark measures the program from outside. [`Timed`] is a
//! [`StorageSystem`] decorator around an unchanged [`Icash`] that times every
//! call the driver makes into it (`preload`, each `submit`, `flush`,
//! `report`); [`measure`] additionally times `Trace::record` and
//! `Icash::new`, and replays through the unchanged [`run_benchmark`] driver,
//! so the simulation is the one `run_all` runs. Per-layer counts come only
//! from counters the program already exports: [`IcashStats`], the
//! [`SystemReport`] device stats and the [`Tracer::counting`] sink.
//!
//! Two kinds of figures come out of a run:
//!
//! * *host* figures (set-up time, replay rate, time per submit) — the cost
//!   of running the simulator, noisy, reported as medians over repetitions;
//! * *simulated* figures (virtual tx/s, latency, SSD writes, energy) — a
//!   deterministic function of the workload seed. Every repetition must
//!   reproduce them exactly.

use host::{Host, Mark};
use icash_core::{Icash, IcashConfig, IcashStats};
use icash_metrics::summary::RunSummary;
use icash_storage::queue::QueueConfig;
use icash_storage::request::{Completion, Op, Request};
use icash_storage::system::{IoCtx, StorageSystem, SystemReport};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceStats, Tracer};
use icash_workloads::content::ContentModel;
use icash_workloads::driver::{run_benchmark, DriverConfig};
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::trace::{Trace, TracePlayer};
use icash_workloads::{specsfs, sysbench, MixedWorkload, Workload};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod host;
pub mod metrics;

/// The seed used while the benchmark was written; the default of `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's workloads. Each is a closed loop with its spec's client
/// count, replayed from traces recorded from the workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// SPECsfs at `scaled_to_ops` size: 92 % writes with file-server
    /// content locality, 100 clients. Host time goes to delta encoding,
    /// the reference-index cache and preload.
    SpecsfsWrite,
    /// SysBench: 72 % reads, Zipf 1.8, 16 clients. Reads are served from
    /// the RAM buffer or by decode; the codec and preload do little.
    SysbenchRead,
    /// `sysbench::pressure_spec()` (all-unique content, uniform addressing,
    /// 75 % writes) at SysBench's scaled sizes with RAM/8, an 8-deep SPTF
    /// command queue and group commit 16: HDD-bound in virtual time.
    PressureHdd,
}

impl Bench {
    /// Every workload, in reporting order.
    pub const ALL: [Bench; 3] = [Bench::SpecsfsWrite, Bench::SysbenchRead, Bench::PressureHdd];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::SpecsfsWrite => "specsfs-write",
            Bench::SysbenchRead => "sysbench-read",
            Bench::PressureHdd => "pressure-hdd",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Operations one part replays, and the parts of one run.
    ///
    /// A run replays several independent parts, each from its own seed,
    /// where one seed's hot set would otherwise decide the figures (Zipf
    /// 1.8 concentrates SysBench on a few blocks, and the host time of one
    /// seed is up to twice that of another). Together the parts leave at
    /// least 1,000 reads and 1,000 writes after each part's warm-up
    /// quarter, so the p99 of each has ten samples beyond it.
    pub fn shape(self) -> (u64, u32) {
        match self {
            Bench::SpecsfsWrite => (20_000, 1),
            Bench::SysbenchRead => (30_000, 4),
            Bench::PressureHdd => (12_000, 3),
        }
    }

    /// The workload specification for parts of `ops` operations.
    pub fn spec(self, ops: u64) -> WorkloadSpec {
        match self {
            Bench::SpecsfsWrite => specsfs::spec().scaled_to_ops(ops),
            Bench::SysbenchRead => sysbench::spec().scaled_to_ops(ops),
            Bench::PressureHdd => {
                // `pressure_spec()` keeps SysBench's sizes but has Table-4
                // counts of 1 and 3, so `scaled_to_ops` would not shrink it.
                // Take the sizes from SysBench scaled to the same length.
                let sized = sysbench::spec().scaled_to_ops(ops);
                let mut spec = sysbench::pressure_spec();
                spec.data_bytes = sized.data_bytes;
                spec.ssd_bytes = sized.ssd_bytes;
                spec.vm_ram_bytes = sized.vm_ram_bytes;
                spec.ram_bytes = (sized.ram_bytes / 8).max(1 << 20);
                spec
            }
        }
    }

    /// The controller configuration for `spec`.
    pub fn config(self, spec: &WorkloadSpec) -> IcashConfig {
        let builder = IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes);
        match self {
            Bench::SpecsfsWrite | Bench::SysbenchRead => builder.build(),
            Bench::PressureHdd => builder
                .queue(QueueConfig::depth(8))
                .group_commit_depth(16)
                .build(),
        }
    }
}

/// The inputs of one run, all derived from the workload seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub bench: Bench,
    /// The workload seed; part `j` uses [`Inputs::part_seed`].
    pub seed: u64,
    /// Operations each part replays.
    pub ops: u64,
    /// Independent parts one run replays.
    pub parts: u32,
    /// The sized workload specification of every part.
    pub spec: WorkloadSpec,
}

impl Inputs {
    /// Inputs for `bench` at its standard shape.
    pub fn new(bench: Bench, seed: u64) -> Self {
        let (ops, parts) = bench.shape();
        Inputs::with_shape(bench, seed, ops, parts)
    }

    /// Inputs for `bench` replaying `parts` parts of `ops` operations.
    pub fn with_shape(bench: Bench, seed: u64, ops: u64, parts: u32) -> Self {
        Inputs {
            bench,
            seed,
            ops,
            parts,
            spec: bench.spec(ops),
        }
    }

    /// The seed of part `j`: the workload seed itself for the first part,
    /// then golden-ratio steps away from it.
    pub fn part_seed(&self, j: u32) -> u64 {
        self.seed
            .wrapping_add(u64::from(j).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Records part `j`'s operation stream, as the harness does for every
    /// cell.
    fn record(&self, j: u32) -> TracePlayer {
        let mut source = MixedWorkload::new(self.spec.clone(), self.part_seed(j));
        let universe = source.address_universe();
        let trace = Trace::record(&mut source, self.ops);
        TracePlayer::new(self.spec.clone(), trace).with_universe(universe)
    }

    fn model(&self, j: u32) -> ContentModel {
        ContentModel::new(self.part_seed(j), self.spec.profile.clone())
    }

    /// The driver settings: the spec's clients, the first quarter of ops
    /// excluded from latency statistics as in `run_all`.
    fn driver(&self, verify: bool) -> DriverConfig {
        DriverConfig {
            clients: self.spec.clients,
            ops: self.ops,
            warmup_ops: self.ops / 4,
            verify,
            guest_cache: false,
            cpu: None,
        }
    }

    /// Replays part `j` through the bare controller, with no decorator and
    /// no tracer: the reference the measured runs must reproduce.
    pub fn run_plain(&self, j: u32) -> RunSummary {
        let mut player = self.record(j);
        let mut system = Icash::new(self.bench.config(&self.spec));
        run_benchmark(
            &mut system,
            &mut player,
            &mut self.model(j),
            &self.driver(false),
        )
    }
}

/// One `submit` call as seen from outside the controller.
#[derive(Debug, Clone, Copy)]
pub struct Submit {
    /// Read (else write).
    pub read: bool,
    /// Past its part's warm-up quarter: counted in the simulated latency
    /// statistics.
    pub steady: bool,
    /// Wall-clock time spent inside the call, in nanoseconds.
    pub host_ns: u64,
    /// Simulated latency of the request.
    pub virt: Ns,
    /// The completion carried a typed error for some block.
    pub failed: bool,
    /// The call ran a scanner pass (traced runs only).
    pub scanned: bool,
    /// The call flushed the delta log or group-committed (traced runs only).
    pub log_flushed: bool,
}

/// A timing decorator: forwards every call to the controller and records
/// the host time spent in it (each submit on the wall clock, the other
/// calls on both clocks).
#[derive(Debug)]
pub struct Timed {
    inner: Icash,
    warmup: usize,
    /// The counting sink of a traced run. With one attached, the
    /// controller's stats are read after every submit to attribute scans
    /// and log flushes to the calls that ran them.
    counts: Option<Arc<Mutex<TraceStats>>>,
    last: IcashStats,
    submits: Vec<Submit>,
    preload: Host,
    flush: Host,
    report: Cell<Host>,
    after_preload: Option<(IcashStats, TraceStats)>,
}

impl Timed {
    /// Wraps `inner`; the first `warmup` submits are marked unsteady. With
    /// `counts`, the controller's trace events go to that counting sink and
    /// its stats are read after every submit.
    pub fn new(mut inner: Icash, warmup: u64, counts: Option<Arc<Mutex<TraceStats>>>) -> Self {
        if let Some(counts) = &counts {
            inner.set_tracer(Tracer::to_sink(counts.clone()));
        }
        Timed {
            inner,
            warmup: warmup as usize,
            counts,
            last: IcashStats::default(),
            submits: Vec::new(),
            preload: Host::default(),
            flush: Host::default(),
            report: Cell::new(Host::default()),
            after_preload: None,
        }
    }

    /// The counting sink's totals so far (traced runs only).
    fn trace_counts(&self) -> Option<TraceStats> {
        let counts = self.counts.as_ref()?;
        Some(counts.lock().expect("counting sink poisoned").clone())
    }
}

impl StorageSystem for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
        let start = Instant::now();
        let completion = self.inner.submit(req, ctx);
        let host_ns = start.elapsed().as_nanos() as u64;
        let (scanned, log_flushed) = if self.counts.is_some() {
            let now = self.inner.stats();
            let marks = (now.scans > self.last.scans, now.flushes > self.last.flushes);
            self.last = now;
            marks
        } else {
            (false, false)
        };
        self.submits.push(Submit {
            read: req.op == Op::Read,
            steady: self.submits.len() >= self.warmup,
            host_ns,
            virt: completion.latency(req),
            failed: !completion.errors.is_empty(),
            scanned,
            log_flushed,
        });
        completion
    }

    fn flush(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        let start = Mark::now();
        let done = self.inner.flush(now, ctx);
        self.flush += start.elapsed();
        done
    }

    fn preload(&mut self, universe: &[(u8, u64)], ctx: &mut IoCtx<'_>) {
        let start = Mark::now();
        self.inner.preload(universe, ctx);
        self.preload += start.elapsed();
        if let Some(trace) = self.trace_counts() {
            self.last = self.inner.stats();
            self.after_preload = Some((self.last.clone(), trace));
        }
    }

    fn report(&self, elapsed: Ns) -> SystemReport {
        let start = Mark::now();
        let report = self.inner.report(elapsed);
        let mut total = self.report.get();
        total += start.elapsed();
        self.report.set(total);
        report
    }
}

/// Counter readings of one traced part: at the end of preload and at the
/// end of the part.
#[derive(Debug, Clone)]
pub struct Counts {
    /// Controller counters once preload finished.
    pub stats_preload: IcashStats,
    /// Controller counters at the end of the part.
    pub stats_end: IcashStats,
    /// Trace-event totals once preload finished.
    pub trace_preload: TraceStats,
    /// Trace-event totals at the end of the part.
    pub trace_end: TraceStats,
}

/// Everything one measured run (all its parts) produced. Host times are
/// summed over the parts.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// The driver's summary of each part.
    pub summaries: Vec<RunSummary>,
    /// Host time of `Trace::record`.
    pub record: Host,
    /// Host time of `Icash::new`.
    pub new: Host,
    /// Host time of `preload`.
    pub preload: Host,
    /// Host time of the driver calls minus preload: the measured replay.
    pub replay: Host,
    /// Host time of the final `flush` of each part.
    pub flush: Host,
    /// Host time of `report`.
    pub report: Host,
    /// Every submit, part after part, in issue order.
    pub submits: Vec<Submit>,
    /// Counter readings of each part (traced runs only, else empty).
    pub counts: Vec<Counts>,
}

impl Run {
    /// Operations replayed over all parts.
    pub fn ops(&self) -> u64 {
        self.summaries.iter().map(|s| s.ops).sum()
    }

    /// Host set-up time: trace record, controller build and preload.
    pub fn setup(&self) -> Host {
        let mut setup = self.record;
        setup += self.new;
        setup += self.preload;
        setup
    }

    /// Wall-clock time of the replay spent outside the controller: the
    /// driver loop, the workload's payload generation and the latency
    /// histograms.
    pub fn driver_self_ns(&self) -> u64 {
        let inside: u64 = self.submits.iter().map(|s| s.host_ns).sum::<u64>()
            + self.flush.wall_ns
            + self.report.wall_ns;
        self.replay.wall_ns.saturating_sub(inside)
    }

    /// Whether `other` reproduced this run's simulated outputs: every
    /// part's driver summary and every simulated figure.
    pub fn same_simulation(&self, other: &Run) -> bool {
        let json = |r: &Run| {
            r.summaries
                .iter()
                .map(RunSummary::to_json)
                .collect::<Vec<_>>()
        };
        json(self) == json(other) && metrics::simulated(self) == metrics::simulated(other)
    }
}

/// Runs every part of the inputs once through the timing decorator, each
/// part from a fresh trace record and a fresh controller. A `traced` run
/// attaches a counting tracer, reads the controller's stats after every
/// submit and verifies every read against the content oracle (a wrong
/// byte panics inside the driver).
pub fn measure(inputs: &Inputs, traced: bool) -> Run {
    let mut run = Run::default();
    for j in 0..inputs.parts {
        let start = Mark::now();
        let mut player = inputs.record(j);
        run.record += start.elapsed();

        let config = inputs.bench.config(&inputs.spec);
        let start = Mark::now();
        let icash = Icash::new(config);
        run.new += start.elapsed();

        let driver = inputs.driver(traced);
        let counts = traced.then(|| Arc::new(Mutex::new(TraceStats::default())));
        let mut system = Timed::new(icash, driver.warmup_ops, counts);
        let start = Mark::now();
        let summary = run_benchmark(&mut system, &mut player, &mut inputs.model(j), &driver);
        let driver_call = start.elapsed();

        if let Some((stats_preload, trace_preload)) = system.after_preload.take() {
            run.counts.push(Counts {
                stats_preload,
                stats_end: system.inner.stats(),
                trace_preload,
                trace_end: system.trace_counts().expect("a traced part has a sink"),
            });
        }
        run.summaries.push(summary);
        run.preload += system.preload;
        run.replay += driver_call.minus(system.preload);
        run.flush += system.flush;
        run.report += system.report.get();
        run.submits.append(&mut system.submits);
    }
    run
}

/// The value at quantile `q` of `values` by nearest rank (`q` in `(0, 1]`);
/// 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The median of `values` (nearest rank); 0 for an empty slice.
pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}
