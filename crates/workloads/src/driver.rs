//! The benchmark driver: one loop, two pacings.
//!
//! Reproduces the paper's measurement setup: N logical clients issue
//! requests against one storage system. Under [`Pacing::Closed`] each
//! client waits for its previous request (plus its application compute)
//! before issuing the next. Under [`Pacing::Open`] a seeded
//! [`ArrivalProcess`] schedule decides when each request arrives, whether
//! or not a client slot is free, so queueing time becomes a measured
//! quantity (emitted as `OpenLoopArrival` trace events). Either way the
//! driver owns the CPU model and the content model, collects latencies
//! into histograms, and emits a [`RunSummary`] with everything the paper's
//! figures and tables report.
//!
//! With `verify` enabled, every read is checked against the content
//! model's oracle — a whole-system data-integrity test running under the
//! exact benchmark access pattern.

use crate::arrivals::{ArrivalConfig, ArrivalProcess, EventQueue};
use crate::content::ContentModel;
use crate::workload::Workload;
use icash_metrics::summary::RunSummary;
use icash_storage::block::BlockBuf;
use icash_storage::block::Lba;
use icash_storage::cpu::{CpuModel, CpuOp};
use icash_storage::histogram::LatencyHistogram;
use icash_storage::lru::LruMap;
use icash_storage::request::{Completion, Op, Request};
use icash_storage::system::{IoCtx, StorageSystem};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind, Tracer};

/// The guest VM's page cache (Table 4's "VM RAM" column).
///
/// Disabled by default: the paper's Table 4 op counts were captured at the
/// virtual-disk level, *below* the guest page cache, so the generators
/// already model post-cache traffic. Enabling it (ablations) filters reads
/// through an extra LRU tier the way an in-guest trace would see them.
#[derive(Debug)]
struct PageCache {
    capacity: usize,
    entries: LruMap<Lba, ()>,
}

impl PageCache {
    fn new(capacity_blocks: usize) -> Self {
        PageCache {
            capacity: capacity_blocks,
            entries: LruMap::new(),
        }
    }

    fn contains(&mut self, lba: Lba) -> bool {
        self.entries.get(&lba).is_some()
    }

    fn insert(&mut self, lba: Lba) {
        if self.capacity == 0 || self.contains(lba) {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.pop_lru();
        }
        self.entries.insert(lba, ());
    }
}

/// Driver parameters.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Concurrent clients (the paper uses 16 SysBench threads, 100 LoadSim
    /// users, 300 RUBiS clients...); open-loop service slots.
    pub clients: u32,
    /// Total operations to issue.
    pub ops: u64,
    /// Operations excluded from latency statistics (cache warmup).
    pub warmup_ops: u64,
    /// Verify every read against the content oracle.
    pub verify: bool,
    /// Model the guest page cache in front of the storage system
    /// (ablation; Table 4 traffic is already post-cache).
    pub guest_cache: bool,
    /// CPU model to run on (None = the paper's host Xeon). The paper's §6
    /// future work is an embedded-processor prototype; pass a slower model
    /// to study it.
    pub cpu: Option<CpuModel>,
}

impl DriverConfig {
    /// A configuration issuing `ops` operations with 16 clients and 10 %
    /// warmup.
    pub fn new(ops: u64) -> Self {
        DriverConfig {
            clients: 16,
            ops,
            warmup_ops: ops / 10,
            verify: false,
            guest_cache: false,
            cpu: None,
        }
    }

    /// Runs the storage layer on a custom CPU model (e.g. an embedded
    /// controller processor instead of the host Xeon).
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Sets the client count.
    pub fn clients(mut self, clients: u32) -> Self {
        self.clients = clients.max(1);
        self
    }

    /// Enables oracle verification of every read.
    pub fn verify(mut self) -> Self {
        self.verify = true;
        self
    }
}

/// How the driver decides when each request is issued.
#[derive(Debug, Clone)]
pub enum Pacing {
    /// Closed loop: the earliest-ready client issues next, and a client is
    /// ready again after its request completes plus the workload's app-CPU
    /// and think time. Latency is measured from the issue instant.
    Closed,
    /// Open loop: requests arrive on a seeded schedule and start service at
    /// the later of their arrival and the earliest free client slot. Think
    /// and app-CPU times are ignored (pacing belongs to the arrival
    /// process), and latency is measured from the *scheduled arrival*, so
    /// it includes queued time — which is what makes overload visible.
    Open(OpenLoop),
}

/// Open-loop pacing parameters.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// The arrival process to dispatch.
    pub arrival: ArrivalConfig,
    /// Seed for the arrival schedule.
    pub seed: u64,
    /// Receives one [`TraceKind::OpenLoopArrival`] per dispatch, carrying
    /// the queued/service split the oracle tests reconcile.
    pub tracer: Tracer,
}

/// What the open-loop dispatcher observed, for oracle reconciliation
/// against the `OpenLoopArrival` trace stream. All zero under
/// [`Pacing::Closed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenLoopStats {
    /// Arrivals dispatched (one trace event each).
    pub arrivals: u64,
    /// Total time arrivals spent waiting for a free service slot.
    pub queued: Ns,
    /// Arrivals that waited at all.
    pub queued_arrivals: u64,
}

/// Runs `workload` closed-loop against `system` and summarises the result.
///
/// # Panics
///
/// Panics if `verify` is set and the system returns wrong data — that is
/// the point of verification.
pub fn run_benchmark(
    system: &mut dyn StorageSystem,
    workload: &mut dyn Workload,
    model: &mut ContentModel,
    cfg: &DriverConfig,
) -> RunSummary {
    run_paced(system, workload, model, cfg, &Pacing::Closed).0
}

/// Runs `workload` against `system` under `pacing` and summarises the
/// result, plus the open-loop dispatch tallies.
///
/// `cfg.clients` is the number of client slots under either pacing: closed
/// clients, or open-loop service slots (how many requests may be in
/// service at once). Equal-time ties go to the lowest slot index.
///
/// # Panics
///
/// Panics if `verify` is set and the system returns wrong data.
pub fn run_paced(
    system: &mut dyn StorageSystem,
    workload: &mut dyn Workload,
    model: &mut ContentModel,
    cfg: &DriverConfig,
    pacing: &Pacing,
) -> (RunSummary, OpenLoopStats) {
    let mut cpu = cfg.cpu.clone().unwrap_or_else(CpuModel::xeon);
    let mut slots = vec![Ns::ZERO; cfg.clients.max(1) as usize];
    let mut read_latency = LatencyHistogram::new();
    let mut write_latency = LatencyHistogram::new();
    let mut stats = OpenLoopStats::default();
    let mut end = Ns::ZERO;
    let mut steady_start = Ns::ZERO;
    // Offline image preparation (charges no virtual time).
    {
        let universe = workload.address_universe();
        let mut ctx = IoCtx {
            backing: &*model,
            cpu: &mut cpu,
            collect_data: false,
        };
        system.preload(&universe, &mut ctx);
    }
    let mut page_cache = PageCache::new(if cfg.guest_cache {
        (workload.spec().vm_ram_bytes / 4096) as usize
    } else {
        0
    });
    // The whole open-loop schedule goes through the event queue so
    // dispatch order is the queue's (time, id) order — the deterministic
    // tie-break the arrival proptests pin — not generation order.
    let mut arrivals = EventQueue::new();
    if let Pacing::Open(open) = pacing {
        for a in ArrivalProcess::new(open.arrival.clone(), open.seed).take(cfg.ops) {
            arrivals.push(a);
        }
    }

    for n in 0..cfg.ops {
        let wop = workload.next_op();
        let slot = (0..slots.len())
            .min_by_key(|&i| slots[i])
            .expect("at least one client");
        // `origin` is where latency is measured from; `at` is when the
        // request is issued to the system.
        let (origin, at) = match pacing {
            Pacing::Closed => (slots[slot], slots[slot]),
            Pacing::Open(open) => {
                let arrival = arrivals.pop().expect("one arrival per op");
                let start = arrival.at.max(slots[slot]);
                let queued = start - arrival.at;
                stats.arrivals += 1;
                stats.queued += queued;
                if queued > Ns::ZERO {
                    stats.queued_arrivals += 1;
                }
                open.tracer.emit(|| TraceEvent {
                    at: arrival.at,
                    kind: TraceKind::OpenLoopArrival {
                        seq: arrival.id,
                        lba: wop.lba.raw(),
                        queued: queued.as_ns(),
                    },
                });
                (arrival.at, start)
            }
        };

        let req = match wop.op {
            Op::Read => Request::read_span(wop.lba, wop.blocks, at),
            Op::Write => {
                let payload: Vec<BlockBuf> = (0..wop.blocks as u64)
                    .map(|i| model.write_payload(wop.lba.plus(i)))
                    .collect();
                Request::write_span(wop.lba, at, payload)
            }
        };

        // Reads fully covered by the guest page cache never reach the
        // storage system; everything else goes through and fills it.
        let cache_hit =
            cfg.guest_cache && wop.op == Op::Read && req.lbas().all(|l| page_cache.contains(l));
        let completion = if cache_hit {
            let copy = cpu.charge(CpuOp::Memcpy);
            let data = if cfg.verify {
                req.lbas().map(|l| model.current_content(l)).collect()
            } else {
                Vec::new()
            };
            Completion::with_data(at + copy, data)
        } else {
            for l in req.lbas() {
                page_cache.insert(l);
            }
            let mut ctx = IoCtx {
                backing: &*model,
                cpu: &mut cpu,
                collect_data: cfg.verify,
            };
            system.submit(&req, &mut ctx)
        };

        if cfg.verify && wop.op == Op::Read {
            for (i, lba) in req.lbas().enumerate() {
                // A read the system *reported* failed (media error under
                // fault injection) carries placeholder data; silent wrong
                // data is what verification is hunting.
                if completion.failed(lba) {
                    continue;
                }
                let want = model.current_content(lba);
                assert_eq!(
                    completion.data[i],
                    want,
                    "{}: wrong data at {} (op {n})",
                    system.name(),
                    lba
                );
            }
        }

        let latency = completion.finished.saturating_sub(origin);
        if n == cfg.warmup_ops {
            steady_start = origin;
        }
        if n >= cfg.warmup_ops {
            match wop.op {
                Op::Read => read_latency.record(latency),
                Op::Write => write_latency.record(latency),
            }
        }

        slots[slot] = match pacing {
            Pacing::Closed => {
                cpu.charge_app(wop.app_cpu);
                completion.finished + wop.app_cpu + wop.think
            }
            Pacing::Open(_) => completion.finished,
        };
        end = end.max(slots[slot]);
    }

    // Clean shutdown: flush buffered state.
    let end = {
        let mut ctx = IoCtx {
            backing: &*model,
            cpu: &mut cpu,
            collect_data: false,
        };
        system.flush(end, &mut ctx).max(end)
    };

    let report = system.report(end);
    let spec = workload.spec();
    let device_energy = report.device_energy;
    let cpu_energy = cpu.energy(end);
    let summary = RunSummary {
        system: report.name.clone(),
        workload: spec.name.clone(),
        ops: cfg.ops,
        transactions: cfg.ops / spec.ops_per_transaction.max(1),
        elapsed: end,
        steady_ops: cfg.ops.saturating_sub(cfg.warmup_ops),
        steady_elapsed: end.saturating_sub(steady_start),
        read_latency,
        write_latency,
        cpu_utilization: cpu.utilization(end),
        storage_cpu_utilization: if end == Ns::ZERO {
            0.0
        } else {
            (cpu.storage_busy().as_ns() as f64 / end.as_ns() as f64).min(1.0)
        },
        ssd_writes: report.ssd.as_ref().map(|s| s.writes).unwrap_or(0),
        energy_wh: (device_energy + cpu_energy).as_watt_hours(),
        report,
        wall_ns: 0, // filled in by the harness, which times the whole cell
    };
    (summary, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentProfile;
    use crate::scenario::ArrivalShape;
    use crate::spec::WorkloadSpec;
    use crate::workload::MixedWorkload;
    use icash_storage::system::SystemReport;

    /// A fixed-latency system for driver mechanics.
    #[derive(Debug)]
    struct FixedLatency;

    impl StorageSystem for FixedLatency {
        fn name(&self) -> &str {
            "Fixed"
        }
        fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
            let data = if ctx.collect_data && req.op == Op::Read {
                req.lbas().map(|l| ctx.backing.initial_content(l)).collect()
            } else {
                Vec::new()
            };
            Completion::with_data(req.at + Ns::from_us(100), data)
        }
        fn report(&self, _elapsed: Ns) -> SystemReport {
            SystemReport {
                name: "Fixed".into(),
                ..SystemReport::default()
            }
        }
    }

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny".into(),
            data_bytes: 4 << 20,
            table4_reads: 900,
            table4_writes: 100,
            avg_read_bytes: 4096,
            avg_write_bytes: 4096,
            ssd_bytes: 1 << 20,
            vm_ram_bytes: 1 << 20,
            ram_bytes: 1 << 20,
            zipf_exponent: 1.0,
            active_fraction: 1.0,
            sequential_prob: 0.0,
            seq_run_ops: 1,
            ops_per_transaction: 10,
            app_cpu_per_op: Ns::from_us(50),
            think_per_op: Ns::ZERO,
            profile: ContentProfile::database(),
            clients: 4,
            default_ops: 500,
        }
    }

    #[test]
    fn driver_produces_consistent_summary() {
        let mut system = FixedLatency;
        let mut wl = MixedWorkload::new(tiny_spec(), 1);
        let mut model = ContentModel::new(1, ContentProfile::database());
        let cfg = DriverConfig::new(1_000).clients(4);
        let s = run_benchmark(&mut system, &mut wl, &mut model, &cfg);

        assert_eq!(s.ops, 1_000);
        assert_eq!(s.transactions, 100);
        assert!(s.elapsed > Ns::ZERO);
        // Fixed 100 µs service; page-cache hits complete faster.
        assert!(s.read_latency.mean() <= Ns::from_us(100));
        assert!(s.write_latency.mean() == Ns::from_us(100));
        assert!(s.read_latency.count() + s.write_latency.count() <= 1_000);
        assert!(s.transactions_per_sec() > 0.0);
        assert!(s.cpu_utilization > 0.0);
    }

    #[test]
    fn clients_overlap_in_time() {
        // With C clients and fixed service time S plus think T, the run
        // finishes ~C× faster than a single client.
        let run_with = |clients: u32| {
            let mut system = FixedLatency;
            let mut wl = MixedWorkload::new(tiny_spec(), 1);
            let mut model = ContentModel::new(1, ContentProfile::database());
            let cfg = DriverConfig::new(400).clients(clients);
            run_benchmark(&mut system, &mut wl, &mut model, &cfg).elapsed
        };
        let one = run_with(1);
        let eight = run_with(8);
        assert!(
            eight < one / 4,
            "8 clients ({eight}) should be much faster than 1 ({one})"
        );
    }

    #[test]
    fn guest_cache_absorbs_repeat_reads() {
        // With the ablation cache on, re-reads never reach the system.
        #[derive(Debug)]
        struct Counting {
            reads: u64,
        }
        impl StorageSystem for Counting {
            fn name(&self) -> &str {
                "Counting"
            }
            fn submit(&mut self, req: &Request, _ctx: &mut IoCtx<'_>) -> Completion {
                if req.op == Op::Read {
                    self.reads += 1;
                }
                Completion::at(req.at + Ns::from_us(10))
            }
            fn report(&self, _elapsed: Ns) -> SystemReport {
                SystemReport::default()
            }
        }

        let run = |guest_cache: bool| {
            let mut system = Counting { reads: 0 };
            let mut wl = MixedWorkload::new(tiny_spec(), 3);
            let mut model = ContentModel::new(3, ContentProfile::database());
            let cfg = DriverConfig {
                clients: 1,
                ops: 2_000,
                warmup_ops: 0,
                verify: false,
                guest_cache,
                cpu: None,
            };
            let _ = run_benchmark(&mut system, &mut wl, &mut model, &cfg);
            system.reads
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without / 2,
            "guest cache must absorb most re-reads: {with} vs {without}"
        );
    }

    #[test]
    fn warmup_excludes_early_samples() {
        let mut system = FixedLatency;
        let mut wl = MixedWorkload::new(tiny_spec(), 2);
        let mut model = ContentModel::new(2, ContentProfile::database());
        let cfg = DriverConfig::new(100).clients(1);
        let s = run_benchmark(&mut system, &mut wl, &mut model, &cfg);
        assert_eq!(s.read_latency.count() + s.write_latency.count(), 90);
    }

    fn open(arrival: ArrivalConfig, seed: u64, tracer: Tracer) -> Pacing {
        Pacing::Open(OpenLoop {
            arrival,
            seed,
            tracer,
        })
    }

    #[test]
    fn open_loop_counts_reconcile_with_the_trace() {
        let (tracer, counts) = Tracer::counting();
        let mut wl = MixedWorkload::new(tiny_spec(), 5);
        let mut model = ContentModel::new(5, ContentProfile::database());
        let pacing = open(ArrivalShape::Stationary.config(Ns::from_us(200)), 5, tracer);
        let cfg = DriverConfig::new(400);
        let (summary, stats) = run_paced(&mut FixedLatency, &mut wl, &mut model, &cfg, &pacing);
        assert_eq!(stats.arrivals, 400);
        assert_eq!(summary.ops, 400);
        let c = counts.lock().expect("sink");
        assert_eq!(c.open_loop_arrivals, 400, "one trace event per arrival");
        assert_eq!(c.open_loop_queued, stats.queued, "oracle and driver agree");
    }

    #[test]
    fn closed_loop_dispatches_no_arrivals() {
        let mut wl = MixedWorkload::new(tiny_spec(), 5);
        let mut model = ContentModel::new(5, ContentProfile::database());
        let cfg = DriverConfig::new(200);
        let (_, stats) = run_paced(
            &mut FixedLatency,
            &mut wl,
            &mut model,
            &cfg,
            &Pacing::Closed,
        );
        assert_eq!(stats, OpenLoopStats::default());
    }

    #[test]
    fn overload_queues_and_underload_does_not() {
        // 1 service slot, 100 µs service: arrivals every 50 µs overload
        // (gaps < service), every 400 µs underload.
        let run = |gap_us: u64| {
            let arrival = ArrivalConfig {
                base_gap: Ns::from_us(gap_us),
                diurnal: None,
                burst: None,
                jitter: false,
            };
            let mut wl = MixedWorkload::new(tiny_spec(), 9);
            let mut model = ContentModel::new(9, ContentProfile::database());
            let cfg = DriverConfig::new(200).clients(1);
            let pacing = open(arrival, 9, Tracer::disabled());
            run_paced(&mut FixedLatency, &mut wl, &mut model, &cfg, &pacing).1
        };
        let overloaded = run(50);
        let underloaded = run(400);
        assert!(overloaded.queued_arrivals > 150, "overload must queue");
        assert!(overloaded.queued > Ns::ZERO);
        assert_eq!(underloaded.queued, Ns::ZERO, "underload must not queue");
    }

    #[test]
    fn open_loop_is_deterministic() {
        let run = || {
            let mut wl = MixedWorkload::new(tiny_spec(), 3);
            let mut model = ContentModel::new(3, ContentProfile::database());
            let cfg = DriverConfig::new(300);
            let pacing = open(
                ArrivalShape::Burst.config(Ns::from_us(100)),
                3,
                Tracer::disabled(),
            );
            let (s, stats) = run_paced(&mut FixedLatency, &mut wl, &mut model, &cfg, &pacing);
            (s.elapsed, s.read_latency, s.write_latency, stats)
        };
        assert_eq!(run(), run());
    }
}
