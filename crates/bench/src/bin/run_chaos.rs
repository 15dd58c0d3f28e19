//! The chaos campaign: whole-device failures, degraded-mode service,
//! online rebuild and backpressure, exercised under live traffic with two
//! oracles held throughout:
//!
//! * **zero silent corruption** — every read returns a version of the
//!   block the history allows, or a typed error; never a splice;
//! * **availability** — service degrades instead of crashing: reads keep
//!   returning data-or-typed-error across a device death, writes after an
//!   HDD death fail fast with [`IoErrorKind::DeviceFailed`], and after
//!   `replace_ssd` the online rebuild returns the array to `Healthy`
//!   under traffic, after which fresh writes read back exactly.
//!
//! Grid (all cells deterministic in their seed; the campaign runs
//! sequentially, so output is independent of `ICASH_THREADS`):
//!
//! * fault storm: 5 systems x 2 seeds at a 1e-2 media-error rate
//! * SSD death → degraded service → replace → online rebuild:
//!   I-CASH x shard counts {1, 2} x 2 seeds
//! * HDD death → fail-fast writes: I-CASH x {1, 2} x 2 seeds
//! * second (HDD) death while the rebuild runs: I-CASH x {1, 2} x 2 seeds
//! * crash mid-rebuild → recovery: I-CASH x {1, 2} x 2 seeds
//! * backpressure: a tiny staging cap under a write burst, {1, 2} x 2 seeds
//!
//! Exits nonzero (after printing every violation) if any oracle fails, if
//! a scenario's machinery did not engage (no degraded reads, no rebuild
//! chunks, no busy rejections — a chaos campaign that never saw chaos
//! proves nothing), or on any panic.

use icash_baselines::{DedupCache, LruCache, PureSsd, Raid0};
use icash_core::{Icash, IcashConfig};
use icash_storage::block::Lba;
use icash_storage::cpu::CpuModel;
use icash_storage::fault::{fault_roll, FaultPlan, HealthPolicy, HealthState};
use icash_storage::request::IoErrorKind;
use icash_storage::shard::ShardRouter;
use icash_storage::system::{HealthReport, IoCtx, StorageSystem, ZeroSource};
use icash_storage::time::Ns;
use icash_workloads::history::{Accept, History};

/// Logical block space each cell works over.
const SPACE: u64 = 1024;
/// Mixed ops in the healthy warm-up phase of the death scenarios.
const WARM_OPS: u64 = 150;
/// Mixed ops driven while a device is failed (degraded service window).
const DEGRADED_OPS: u64 = 100;
/// Upper bound on ops spent waiting for a deterministic state change
/// (monitor reaching `Failed`, rebuild draining). Hitting the bound is a
/// campaign failure, not a hang.
const WAIT_OPS: u64 = 20000;
/// Device-op index at which the armed device dies.
const DEATH_OP: u64 = 60;
/// Campaign seeds.
const SEEDS: [u64; 2] = [0xC4A0_0001, 0xC4A0_0002];
/// Shard-router widths the I-CASH scenarios run under.
const SHARDS: [u32; 2] = [1, 2];
/// Data-set / cache sizing shared by every cell.
const DATA_BYTES: u64 = 8 << 20;
const SSD_BYTES: u64 = 1 << 20;
const RAM_BYTES: u64 = 256 << 10;

fn base_policy() -> HealthPolicy {
    HealthPolicy::default()
}

fn icash_config(policy: HealthPolicy) -> IcashConfig {
    icash_config_depth(policy, 1)
}

fn icash_config_depth(policy: HealthPolicy, depth: u64) -> IcashConfig {
    IcashConfig::builder(SSD_BYTES, RAM_BYTES, DATA_BYTES)
        .scan_interval(50)
        .scan_window(64)
        .flush_interval(20)
        .log_blocks(4096)
        .group_commit_depth(depth)
        .health(policy)
        .build()
}

/// An I-CASH instance per shard behind a router (width 1 routes
/// identically), each armed with its own seeded fault plan.
fn build_router(
    cfg: IcashConfig,
    shards: u32,
    plan_for_shard: impl Fn(u64) -> FaultPlan,
) -> ShardRouter<Icash> {
    let slice = if shards > 1 {
        let mut slice = cfg.shard_slice(shards);
        // The scenarios state their knobs per shard: undo the slice's
        // global-cap division, and keep the parent's dirty-flush threshold
        // so a sliced shard does not drain staging after every block
        // (which would make a small staging cap untestable).
        slice.health = cfg.health;
        slice.flush_dirty_bytes = cfg.flush_dirty_bytes;
        slice
    } else {
        cfg
    };
    let systems: Vec<Icash> = (0..shards)
        .map(|s| Icash::new(slice.clone()).with_fault_plan(plan_for_shard(s as u64)))
        .collect();
    ShardRouter::new(systems)
}

/// One cell's traffic source: its seeded op counter, virtual clock, CPU
/// model and write history. Every block version carries a `0xC7` body
/// (so I-CASH forms references and deltas) plus a unique tag making any
/// cross-version or cross-block splice detectable.
struct Client {
    h: History,
    cpu: CpuModel,
    seed: u64,
    op: u64,
    t: Ns,
}

impl Client {
    fn new(seed: u64) -> Self {
        Client {
            h: History::stamped(0xC7, 0xCA05),
            cpu: CpuModel::xeon(),
            seed,
            op: 0,
            t: Ns::ZERO,
        }
    }

    /// Issues the next mixed op (3:2 write:read). The oracle here is the
    /// permissive one — any acknowledged version — because these ops run
    /// across device deaths where reads may legally serve older hardened
    /// copies. A refused write (typed error) leaves the history's
    /// acknowledged set as-is.
    fn mixed(&mut self, sys: &mut dyn StorageSystem) {
        let roll = fault_roll(self.seed, 0xC405, self.op, 0);
        let lba = roll % SPACE;
        let mut ctx = IoCtx::verifying(&ZeroSource, &mut self.cpu);
        let c = if roll % 5 < 3 {
            self.h.write(sys, &mut ctx, lba, self.t)
        } else {
            self.h
                .read(sys, &mut ctx, lba, self.t, Accept::Acknowledged)
        };
        self.t = c.finished;
        self.op += 1;
    }

    /// Drives mixed traffic until `done` holds for **every shard's** health
    /// report (the merged report takes the worst shard, which would
    /// declare an array-wide state after a single shard reached it),
    /// bounded by [`WAIT_OPS`]; records a violation if the bound hits.
    fn drive_until(
        &mut self,
        sys: &mut ShardRouter<Icash>,
        what: &str,
        done: impl Fn(&HealthReport) -> bool,
    ) {
        for _ in 0..WAIT_OPS {
            let reached = sys.shards().iter().all(|shard| {
                let health = shard
                    .report(Ns::from_ms(1))
                    .health
                    .expect("health cells always report");
                done(&health)
            });
            if reached {
                return;
            }
            self.mixed(sys);
        }
        self.h
            .violations
            .push(format!("{what} not reached within {WAIT_OPS} ops"));
    }

    /// Post-incident service check: fresh writes must be acknowledged and
    /// read back exactly (the strict oracle — the array claims to be
    /// healthy again).
    fn fresh_service(&mut self, sys: &mut dyn StorageSystem) {
        for op in 0..50u64 {
            let lba = fault_roll(self.seed, 0xF4E5, op, 0) % SPACE;
            let mut ctx = IoCtx::verifying(&ZeroSource, &mut self.cpu);
            let c = self.h.write(sys, &mut ctx, lba, self.t);
            if c.failed(Lba::new(lba)) {
                self.h
                    .violations
                    .push(format!("post-incident write of lba {lba} refused"));
                continue;
            }
            let at = self.t.max(c.finished);
            self.t = self.h.read(sys, &mut ctx, lba, at, Accept::Latest).finished;
        }
    }

    /// Final availability sweep, on its own clock from the current instant:
    /// every block the history acknowledged must read as an acknowledged
    /// version or a typed error; at least one read must actually return
    /// data (an all-errors sweep is no availability at all).
    fn final_sweep(&mut self, sys: &mut dyn StorageSystem) {
        let mut ctx = IoCtx::verifying(&ZeroSource, &mut self.cpu);
        let mut t = self.t;
        let errors_before = self.h.reported_errors;
        let reads_before = self.h.reads;
        for lba in self.h.acknowledged() {
            t = self
                .h
                .read(sys, &mut ctx, lba, t, Accept::Acknowledged)
                .finished;
        }
        let swept = self.h.reads - reads_before;
        let errored = self.h.reported_errors - errors_before;
        if swept > 0 && errored == swept {
            self.h
                .violations
                .push(format!("availability sweep served zero of {swept} reads"));
        }
    }
}

fn merged_health(sys: &ShardRouter<Icash>) -> HealthReport {
    sys.report(Ns::from_ms(1))
        .health
        .expect("health cells always report")
}

fn validate_shards(sys: &ShardRouter<Icash>) {
    for shard in sys.shards() {
        shard.debug_validate();
    }
}

// ----------------------------------------------------------------------
// Scenarios
// ----------------------------------------------------------------------

/// SSD dies mid-run → degraded HDD-only service → `replace_ssd` → online
/// rebuild under traffic → healthy again, fresh writes exact.
fn cell_ssd_death(seed: u64, shards: u32) -> (History, HealthReport) {
    let mut sys = build_router(icash_config(base_policy()), shards, |s| {
        FaultPlan::seeded(seed + s).ssd_dies_at(DEATH_OP)
    });
    let mut c = Client::new(seed);
    for _ in 0..WARM_OPS {
        c.mixed(&mut sys);
    }
    // The armed device op count passes during the warm-up; keep driving
    // until every shard's monitor has walked to `Failed`.
    c.drive_until(&mut sys, "SSD Failed", |h| h.ssd == HealthState::Failed);
    // Degraded window: service continues HDD-only.
    for _ in 0..DEGRADED_OPS {
        c.mixed(&mut sys);
    }
    for shard in sys.shards_mut() {
        shard.replace_ssd(c.t);
    }
    // Rebuild rides the host I/O stream; drive until the array reports
    // Healthy again.
    c.drive_until(&mut sys, "rebuild completion", |h| {
        h.ssd == HealthState::Healthy
    });
    c.fresh_service(&mut sys);
    c.final_sweep(&mut sys);
    validate_shards(&sys);
    let health = merged_health(&sys);
    if health.degraded_reads + health.degraded_writes == 0 {
        c.h.violations
            .push("degraded service never engaged".to_string());
    }
    if health.rebuild_chunks == 0 {
        c.h.violations.push("rebuild never ran".to_string());
    }
    (c.h, health)
}

/// HDD dies mid-run → writes fail fast with a typed `DeviceFailed` error
/// while reads keep serving RAM/SSD-resident state or typed errors.
fn cell_hdd_death(seed: u64, shards: u32) -> (History, HealthReport) {
    let mut sys = build_router(icash_config(base_policy()), shards, |s| {
        FaultPlan::seeded(seed + s).hdd_dies_at(DEATH_OP)
    });
    let mut c = Client::new(seed);
    for _ in 0..WARM_OPS {
        c.mixed(&mut sys);
    }
    c.drive_until(&mut sys, "HDD Failed", |h| h.hdd == HealthState::Failed);
    let mut ctx = IoCtx::verifying(&ZeroSource, &mut c.cpu);
    // Fail-fast contract: every write is refused with DeviceFailed (the
    // whole array is down once every shard's spindle is).
    for i in 0..20u64 {
        let lba = fault_roll(seed, 0xDEAD, i, 0) % SPACE;
        let done = c.h.write(&mut sys, &mut ctx, lba, c.t);
        c.t = done.finished;
        if !done
            .errors
            .iter()
            .any(|e| e.lba == Lba::new(lba) && e.kind == IoErrorKind::DeviceFailed)
        {
            c.h.violations.push(format!(
                "write to lba {lba} on a failed HDD was not refused with DeviceFailed"
            ));
        }
    }
    // Reads during the outage: valid-or-typed-error.
    for i in 0..DEGRADED_OPS {
        let lba = fault_roll(seed, 0x0D1E, c.op + i, 0) % SPACE;
        c.t =
            c.h.read(&mut sys, &mut ctx, lba, c.t, Accept::Acknowledged)
                .finished;
    }
    validate_shards(&sys);
    (c.h, merged_health(&sys))
}

/// SSD death → replace → rebuild, with the HDD armed to die as the rebuild
/// traffic runs: the rebuild's home-copy reads start failing and service
/// must degrade further, never corrupt.
fn cell_death_during_rebuild(seed: u64, shards: u32) -> (History, HealthReport) {
    let mut policy = base_policy();
    // A slow rebuild stretches the window the second death lands in.
    policy.rebuild_rate = 1;
    // Each shard sees ~1/width of the traffic, so its device-op clock runs
    // that much slower: scale the second death so it lands in the rebuild
    // window at every width.
    let hdd_death = (DEATH_OP * 16) / shards as u64;
    let mut sys = build_router(icash_config(policy), shards, |s| {
        FaultPlan::seeded(seed + s)
            .ssd_dies_at(DEATH_OP)
            .hdd_dies_at(hdd_death)
    });
    let mut c = Client::new(seed);
    for _ in 0..WARM_OPS {
        c.mixed(&mut sys);
    }
    c.drive_until(&mut sys, "SSD Failed", |h| h.ssd == HealthState::Failed);
    for shard in sys.shards_mut() {
        shard.replace_ssd(c.t);
    }
    // Drive rebuild traffic until the armed HDD death lands on every
    // shard; the oracles hold across the compound failure.
    c.drive_until(&mut sys, "HDD Failed during rebuild", |h| {
        h.hdd == HealthState::Failed
    });
    for _ in 0..DEGRADED_OPS {
        c.mixed(&mut sys);
    }
    validate_shards(&sys);
    let health = merged_health(&sys);
    if health.rebuild_chunks == 0 {
        c.h.violations.push("rebuild never ran".to_string());
    }
    (c.h, health)
}

/// SSD death → replace → crash mid-rebuild → recovery: every block reads
/// as an acknowledged version or a typed error, and post-recovery service
/// is exact.
fn cell_crash_during_rebuild(seed: u64, shards: u32) -> (History, HealthReport) {
    let mut policy = base_policy();
    policy.rebuild_rate = 1; // crash lands with work still pending
    let mut sys = build_router(icash_config(policy), shards, |s| {
        FaultPlan::seeded(seed + s).ssd_dies_at(DEATH_OP)
    });
    let mut c = Client::new(seed);
    for _ in 0..WARM_OPS {
        c.mixed(&mut sys);
    }
    c.drive_until(&mut sys, "SSD Failed", |h| h.ssd == HealthState::Failed);
    for shard in sys.shards_mut() {
        shard.replace_ssd(c.t);
    }
    // A little rebuild traffic, then the plug is pulled mid-task.
    for _ in 0..30u64 {
        c.mixed(&mut sys);
    }
    let recovered: Vec<Icash> = sys
        .into_shards()
        .into_iter()
        .map(|s| s.crash_and_recover())
        .collect();
    let mut sys = ShardRouter::new(recovered);
    // Everything the history acknowledged must still read valid-or-typed.
    c.final_sweep(&mut sys);
    c.fresh_service(&mut sys);
    validate_shards(&sys);
    (c.h, merged_health(&sys))
}

/// A tiny staging cap under a pure write burst: admission control must
/// refuse with typed `Busy` errors (and never lose an acknowledged write).
fn cell_backpressure(seed: u64, shards: u32) -> (History, HealthReport) {
    let mut policy = base_policy();
    policy.staging_cap = 2 * shards as u64; // each shard polices cap/shards
                                            // A staging cap only bites when deltas actually sit in staging, which
                                            // needs the staged pipeline (depth > 1); at depth 1 every flush trigger
                                            // commits synchronously and the buffer is always empty.
    let mut sys = build_router(icash_config_depth(policy, 8), shards, |s| {
        FaultPlan::seeded(seed + s)
    });
    let mut c = Client::new(seed);
    let mut ctx = IoCtx::verifying(&ZeroSource, &mut c.cpu);
    let mut busy = 0u64;
    for op in 0..400u64 {
        let lba = fault_roll(seed, 0xB0B0, op, 0) % SPACE;
        let done = c.h.write(&mut sys, &mut ctx, lba, c.t);
        c.t = done.finished;
        if done
            .errors
            .iter()
            .any(|e| e.lba == Lba::new(lba) && e.kind == IoErrorKind::Busy)
        {
            busy += 1;
        } else if done.failed(Lba::new(lba)) {
            c.h.violations.push(format!(
                "fault-free write to lba {lba} failed with a non-Busy error"
            ));
        }
    }
    if busy == 0 {
        c.h.violations
            .push("a 2-block staging cap never pushed back".to_string());
    }
    c.t = sys.flush(c.t, &mut ctx);
    // Every acknowledged write is readable; latest version exactly (no
    // faults were injected here).
    for lba in c.h.acknowledged() {
        c.t =
            c.h.read(&mut sys, &mut ctx, lba, c.t, Accept::Latest)
                .finished;
    }
    validate_shards(&sys);
    (c.h, merged_health(&sys))
}

/// A high-rate media-fault storm across all five architectures; I-CASH
/// runs with health armed so the backoff machinery absorbs the noise.
fn cell_fault_storm(kind: usize, seed: u64) -> (History, Option<HealthReport>) {
    let rate = 1e-2;
    let plan = FaultPlan::seeded(seed)
        .hdd_read_errors(rate)
        .hdd_write_errors(rate)
        .ssd_read_errors(rate);
    let mut sys: Box<dyn StorageSystem> = match kind {
        0 => Box::new(PureSsd::new(DATA_BYTES).with_fault_plan(&plan)),
        1 => Box::new(Raid0::new(DATA_BYTES, 4).with_fault_plan(&plan)),
        2 => Box::new(DedupCache::new(SSD_BYTES, DATA_BYTES).with_fault_plan(&plan)),
        3 => Box::new(LruCache::new(SSD_BYTES, DATA_BYTES).with_fault_plan(&plan)),
        _ => {
            Box::new(Icash::new(icash_config(base_policy())).with_fault_plan(plan.scrub_every(97)))
        }
    };
    let mut c = Client::new(seed);
    for _ in 0..300u64 {
        c.mixed(sys.as_mut());
    }
    c.t = sys.flush(c.t, &mut IoCtx::verifying(&ZeroSource, &mut c.cpu));
    c.final_sweep(sys.as_mut());
    (c.h, sys.report(Ns::from_ms(1)).health)
}

fn main() {
    let mut cells = 0u64;
    let (mut reads, mut reported, mut refused) = (0u64, 0u64, 0u64);
    let mut violations: Vec<String> = Vec::new();
    let mut health = HealthReport::default();
    let mut fold = |name: String, r: History, h: Option<HealthReport>| {
        println!(
            "cell {name}: {} reads, {} typed errors, {} refused writes",
            r.reads, r.reported_errors, r.refused_writes
        );
        cells += 1;
        reads += r.reads;
        reported += r.reported_errors;
        refused += r.refused_writes;
        violations.extend(r.violations.iter().map(|v| format!("{name}: {v}")));
        if let Some(h) = h {
            health.merge(&h);
        }
    };

    let storm_names = ["FusionIO", "RAID0", "Dedup", "LRU", "I-CASH"];
    for (kind, sys_name) in storm_names.iter().enumerate() {
        for &seed in &SEEDS {
            let (r, h) = cell_fault_storm(kind, seed);
            fold(format!("storm/{sys_name}/{seed:#x}"), r, h);
        }
    }
    for &shards in &SHARDS {
        for &seed in &SEEDS {
            let (r, h) = cell_ssd_death(seed, shards);
            fold(format!("ssd-death/s{shards}/{seed:#x}"), r, Some(h));
            let (r, h) = cell_hdd_death(seed, shards);
            fold(format!("hdd-death/s{shards}/{seed:#x}"), r, Some(h));
            let (r, h) = cell_death_during_rebuild(seed, shards);
            fold(format!("double-death/s{shards}/{seed:#x}"), r, Some(h));
            let (r, h) = cell_crash_during_rebuild(seed, shards);
            fold(format!("crash-rebuild/s{shards}/{seed:#x}"), r, Some(h));
            let (r, h) = cell_backpressure(seed, shards);
            fold(format!("backpressure/s{shards}/{seed:#x}"), r, Some(h));
        }
    }

    println!(
        "chaos campaign: {cells} cells, {reads} verified reads, {reported} typed errors, \
         {refused} refused writes"
    );
    println!(
        "health: {} transitions, {} degraded reads, {} degraded writes, \
         {} busy rejections, {} retry backoffs, {} rebuild chunks",
        health.transitions,
        health.degraded_reads,
        health.degraded_writes,
        health.busy_rejections,
        health.retry_backoffs,
        health.rebuild_chunks
    );
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("CHAOS VIOLATION: {v}");
        }
        eprintln!("{} violation(s)", violations.len());
        std::process::exit(1);
    }
    // The campaign must have actually exercised every mechanism it exists
    // to test; a quiet pass would prove nothing.
    assert!(health.transitions > 0, "no health transitions observed");
    assert!(health.degraded_reads > 0, "no degraded reads observed");
    assert!(health.degraded_writes > 0, "no degraded writes observed");
    assert!(health.busy_rejections > 0, "no backpressure observed");
    assert!(health.retry_backoffs > 0, "no backoff retries observed");
    assert!(health.rebuild_chunks > 0, "no rebuild chunks observed");
    println!("CHAOS CAMPAIGN OK");
}
