//! Property-based fault and crash testing: under arbitrary write
//! histories, seeded media-fault injection, and a crash (with torn
//! writes) at an arbitrary point, every block reads back as a version it
//! legitimately held — or as a *reported* media error. Never a splice,
//! never garbage, never a panic.

use icash::core::{Icash, IcashConfig};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::{fault_roll, FaultPlan, HealthPolicy, HealthState};
use icash::storage::request::IoErrorKind;
use icash::storage::shard::ShardRouter;
use icash::storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};
use icash::workloads::history::{Accept, History};
use proptest::prelude::*;

const SPAN: u64 = 64;

#[derive(Debug, Clone)]
enum SysOp {
    Write {
        lba: u64,
        tag: u8,
    },
    Read {
        lba: u64,
    },
    Flush,
    /// A full pipeline barrier: `sync` awaits the newest write ticket, so
    /// everything accepted so far must be durable when it returns.
    Barrier,
}

fn ops_strategy() -> impl Strategy<Value = Vec<SysOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..SPAN, any::<u8>()).prop_map(|(lba, tag)| SysOp::Write { lba, tag }),
            (0..SPAN).prop_map(|lba| SysOp::Read { lba }),
            Just(SysOp::Flush),
            Just(SysOp::Barrier),
        ],
        1..200,
    )
}

/// Staging depths the crash properties sweep: the synchronous cycle, a
/// shallow pipeline, and a deep one that leaves many tickets in flight.
const DEPTHS: [u64; 3] = [1, 4, 16];

/// Content with intra-family similarity so I-CASH's machinery engages,
/// plus a tag making every version distinguishable.
fn block_for(tag: u8) -> BlockBuf {
    let mut v = vec![0xA7u8; 4096];
    v[3] = tag;
    v[1500] = tag.wrapping_mul(3);
    v[3000] = tag.wrapping_add(101);
    BlockBuf::from_vec(v)
}

fn base_config(depth: u64) -> IcashConfig {
    IcashConfig::builder(1 << 20, 256 << 10, 4 << 20)
        .scan_interval(40)
        .scan_window(64)
        .flush_interval(25)
        .log_blocks(1 << 14)
        .group_commit_depth(depth)
        .build()
}

fn pipelined_icash(depth: u64) -> Icash {
    Icash::new(base_config(depth))
}

fn faulty_icash(seed: u64, rate: f64, depth: u64) -> Icash {
    pipelined_icash(depth).with_fault_plan(
        FaultPlan::seeded(seed)
            .hdd_read_errors(rate)
            .hdd_write_errors(rate)
            .ssd_read_errors(rate)
            .torn_writes()
            .scrub_every(97),
    )
}

/// A width-`n` router of independently faulty I-CASH shards, each built
/// from the shard slice of the pinned config — the same construction the
/// sharded harness uses. Per-shard fault streams are seeded apart so a
/// crash tears each shard's log differently.
fn sharded_faulty(width: u32, seed: u64, rate: f64, depth: u64) -> ShardRouter<Icash> {
    let slice = base_config(depth).shard_slice(width);
    ShardRouter::new(
        (0..width)
            .map(|shard| {
                Icash::new(slice.clone()).with_fault_plan(
                    FaultPlan::seeded(seed ^ ((shard as u64 + 1) << 13))
                        .hdd_read_errors(rate)
                        .hdd_write_errors(rate)
                        .ssd_read_errors(rate)
                        .torn_writes()
                        .scrub_every(97),
                )
            })
            .collect(),
    )
}

/// Like [`block_for`], but stamped with the *outer* address. Shards store
/// striped inner addresses, so distinct outer blocks collide on the same
/// inner slot of different shards — a recovery that spliced state across
/// shards would surface a block stamped with a foreign outer lba, which no
/// per-lba version list contains.
fn shard_block_for(lba: u64, tag: u8) -> BlockBuf {
    let mut v = vec![0xA7u8; 4096];
    v[3] = tag;
    v[8..16].copy_from_slice(&lba.to_le_bytes());
    v[1500] = tag.wrapping_mul(3);
    v[3000] = tag.wrapping_add(101);
    BlockBuf::from_vec(v)
}

/// Replays `ops` up to `crash_at` against `system` without collecting read
/// data (nothing is checked before the crash), recording every write of
/// `content(lba, tag)` in `history` and marking every completed barrier.
fn run_until_crash(
    system: &mut dyn StorageSystem,
    ops: &[SysOp],
    crash_at: usize,
    history: &mut History,
    content: impl Fn(u64, u8) -> BlockBuf,
) -> Ns {
    let mut cpu = CpuModel::xeon();
    let backing = ZeroSource;
    let mut now = Ns::ZERO;
    for op in ops.iter().take(crash_at.min(ops.len())) {
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        match op {
            SysOp::Write { lba, tag } => {
                now = history
                    .write_content(system, &mut ctx, *lba, now, content(*lba, *tag))
                    .finished;
            }
            SysOp::Read { lba } => {
                now = system
                    .submit(&Request::read(Lba::new(*lba), now), &mut ctx)
                    .finished;
            }
            SysOp::Flush => {
                now = system.flush(now, &mut ctx);
            }
            SysOp::Barrier => {
                let ticket = system.write_ticket();
                now = system.sync(now, &mut ctx);
                prop_assert!(
                    system.flushed_ticket() >= ticket,
                    "sync returned with tickets still in flight"
                );
                history.barrier();
            }
        }
    }
    now
}

/// Reads back every block `history` saw written, after a crash, and checks
/// each against `accept`.
fn check_recovery(
    system: &mut dyn StorageSystem,
    history: &mut History,
    mut now: Ns,
    accept: Accept,
) {
    let mut cpu = CpuModel::xeon();
    let backing = ZeroSource;
    for lba in history.written() {
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        now = history.read(system, &mut ctx, lba, now, accept).finished;
    }
    prop_assert!(history.violations.is_empty(), "{:?}", history.violations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Live service under injected faults: a read either reports a media
    /// error or returns the block's latest content — nothing in between.
    #[test]
    fn faulty_reads_are_current_or_reported(
        ops in ops_strategy(),
        seed in 0u64..1000,
        rate_pick in 0usize..3,
        depth_pick in 0usize..3,
    ) {
        let rate = [1e-4, 1e-3, 1e-2][rate_pick];
        let mut system = faulty_icash(seed, rate, DEPTHS[depth_pick]);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut history = History::new();
        let mut now = Ns::ZERO;
        for op in &ops {
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            match op {
                SysOp::Write { lba, tag } => {
                    now = history
                        .write_content(&mut system, &mut ctx, *lba, now, block_for(*tag))
                        .finished;
                }
                SysOp::Read { lba } => {
                    let completion = history.read(&mut system, &mut ctx, *lba, now, Accept::Latest);
                    prop_assert!(completion.finished >= now, "time ran backwards");
                    now = completion.finished;
                    prop_assert!(history.violations.is_empty(), "{:?}", history.violations);
                }
                SysOp::Flush => {
                    now = system.flush(now, &mut ctx);
                }
                SysOp::Barrier => {
                    let ticket = system.write_ticket();
                    now = system.sync(now, &mut ctx);
                    prop_assert!(
                        system.flushed_ticket() >= ticket,
                        "sync returned with tickets still in flight"
                    );
                }
            }
        }
    }

    /// Crash anywhere — with torn writes, injected faults, and any staging
    /// depth (so up to K tickets are in flight, staged or mid-commit, when
    /// the power dies): recovery must bring every block back to *some*
    /// version it held (or report the read failed) — a torn log frame must
    /// never splice foreign bytes, whether it carried one entry or a whole
    /// group commit.
    #[test]
    fn crash_with_torn_writes_never_splices(
        ops in ops_strategy(),
        crash_at in 0usize..200,
        seed in 0u64..1000,
        rate_pick in 0usize..4,
        depth_pick in 0usize..3,
    ) {
        let rate = [0.0, 1e-4, 1e-3, 1e-2][rate_pick];
        let mut system = faulty_icash(seed, rate, DEPTHS[depth_pick]);
        let mut history = History::new();
        let now = run_until_crash(&mut system, &ops, crash_at, &mut history, |_, tag| block_for(tag));
        let mut recovered = system.crash_and_recover();
        check_recovery(&mut recovered, &mut history, now, Accept::Submitted);
    }

    /// The sharded engine under the same contract: crash with up to K
    /// tickets in flight spread across several shards (deep group commit
    /// plus torn writes on every shard), recover each shard independently
    /// with its own highest-generation-wins replay, and re-assemble the
    /// router. Every outer block must come back as a version *it* held (or
    /// a reported error) — content is stamped with the outer address, so a
    /// recovery that spliced state across shards (distinct outer blocks
    /// share inner slots on different shards) can never pass.
    #[test]
    fn cross_shard_crash_recovery_never_splices_across_shards(
        ops in ops_strategy(),
        crash_at in 0usize..200,
        seed in 0u64..1000,
        rate_pick in 0usize..3,
        depth_pick in 0usize..3,
        width_pick in 0usize..3,
    ) {
        let rate = [0.0, 1e-4, 1e-3][rate_pick];
        let width = [2u32, 3, 5][width_pick];
        let mut system = sharded_faulty(width, seed, rate, DEPTHS[depth_pick]);
        let mut history = History::new();
        let now = run_until_crash(&mut system, &ops, crash_at, &mut history, shard_block_for);
        // Power dies on every shard at once; each recovers alone, then the
        // router is rebuilt over the survivors.
        let mut recovered = ShardRouter::new(
            system
                .into_shards()
                .into_iter()
                .map(Icash::crash_and_recover)
                .collect(),
        );
        check_recovery(&mut recovered, &mut history, now, Accept::Submitted);
    }

    /// The barrier durability contract: any write covered by an
    /// `await_flush`/`sync` that returned before the crash survives it —
    /// recovery may only roll a block forward of its last barrier-covered
    /// version, never behind it. (Fault-free: the torn-write model tears
    /// the crash-interrupted append, which is a different, weaker
    /// contract tested above.)
    #[test]
    fn awaited_writes_survive_any_crash(
        ops in ops_strategy(),
        crash_at in 0usize..200,
        depth_pick in 0usize..3,
    ) {
        let mut system = pipelined_icash(DEPTHS[depth_pick]);
        let mut history = History::new();
        let now = run_until_crash(&mut system, &ops, crash_at, &mut history, |_, tag| block_for(tag));
        // Barrier-covered blocks may only roll forward of their durable
        // version; never-barriered ones may come back as anything they held.
        let mut recovered = system.crash_and_recover();
        check_recovery(&mut recovered, &mut history, now, Accept::Durable);
    }
}

/// Address span for the death-driving traffic. Deliberately wider than the
/// RAM delta buffer (unlike the scripted history's `SPAN`, which fits):
/// cold misses must keep touching the home disk, or an armed HDD death at
/// a given *device*-op count would take thousands of host ops to land.
const DRIVE_SPAN: u64 = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whole-device death at an arbitrary device-op in an arbitrary
    /// history — optionally followed by a crash mid-rebuild — is
    /// survivable. Every read during degraded service is a version the
    /// block legitimately held or a typed error; an HDD death fails
    /// writes fast with [`IoErrorKind::DeviceFailed`]; a replaced SSD
    /// rebuilds back to `Healthy` under live traffic and then serves
    /// fresh writes exactly; and the surviving controller passes full
    /// internal validation.
    #[test]
    fn device_death_anywhere_is_survivable(
        ops in ops_strategy(),
        death_at in 1u64..120,
        kill_hdd in any::<bool>(),
        crash_mid_rebuild in any::<bool>(),
        seed in 0u64..1000,
        depth_pick in 0usize..3,
    ) {
        let mut cfg = base_config(DEPTHS[depth_pick]);
        cfg.health = Some(HealthPolicy::default());
        let plan = if kill_hdd {
            FaultPlan::seeded(seed).hdd_dies_at(death_at)
        } else {
            FaultPlan::seeded(seed).ssd_dies_at(death_at)
        };
        let mut system = Icash::new(cfg).with_fault_plan(plan);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        // Only acknowledged writes join the acceptable set: a typed refusal
        // must leave the block on its old versions. Every read is
        // valid-or-typed: any acknowledged version, or pre-history zeroes.
        let mut history = History::new();
        let mut now = Ns::ZERO;
        for op in &ops {
            let hdd_down = system
                .report(now)
                .health
                .is_some_and(|h| h.hdd == HealthState::Failed);
            match op {
                SysOp::Write { lba, tag } => {
                    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                    now = history
                        .write_content(&mut system, &mut ctx, *lba, now, block_for(*tag))
                        .finished;
                }
                SysOp::Read { lba } => {
                    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                    now = history
                        .read(&mut system, &mut ctx, *lba, now, Accept::Acknowledged)
                        .finished;
                    prop_assert!(history.violations.is_empty(), "degraded read: {:?}", history.violations);
                }
                // A barrier against a failed home disk is a liveness
                // question, not this property's (safety) contract: skip.
                SysOp::Flush if !hdd_down => {
                    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                    now = system.flush(now, &mut ctx);
                }
                SysOp::Barrier if !hdd_down => {
                    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                    now = system.sync(now, &mut ctx);
                }
                SysOp::Flush | SysOp::Barrier => {}
            }
        }
        // Keep traffic flowing until the armed death lands and the monitor
        // walks its ladder to `Failed` (the device-op clock only advances
        // on actual device accesses, so the bound is generous).
        let mut reached = false;
        for extra in 0..2_500u64 {
            let lba = fault_roll(seed, 0xD1E5, extra, 0) % DRIVE_SPAN;
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            now = if fault_roll(seed, 0xD1E6, extra, lba) % 5 < 3 {
                let content = block_for((extra ^ lba) as u8);
                history.write_content(&mut system, &mut ctx, lba, now, content).finished
            } else {
                history.read(&mut system, &mut ctx, lba, now, Accept::Acknowledged).finished
            };
            prop_assert!(history.violations.is_empty(), "failing device: {:?}", history.violations);
            let health = system.report(now).health.expect("health enabled");
            let state = if kill_hdd { health.hdd } else { health.ssd };
            if state == HealthState::Failed {
                reached = true;
                break;
            }
        }
        prop_assert!(reached, "armed death at device-op {} never reached Failed", death_at);

        if kill_hdd {
            // Fail-fast contract: with the home disk gone, every probe
            // write must bounce with a typed DeviceFailed error.
            for probe in 0..10u64 {
                let lba = fault_roll(seed, 0xDEAD, probe, 1) % SPAN;
                let req = Request::write(Lba::new(lba), now, block_for(probe as u8));
                let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                let completion = system.submit(&req, &mut ctx);
                now = completion.finished;
                prop_assert!(
                    completion
                        .errors
                        .iter()
                        .any(|e| e.lba == Lba::new(lba) && e.kind == IoErrorKind::DeviceFailed),
                    "lba {}: write against a failed HDD was not refused",
                    lba
                );
            }
        } else {
            system.replace_ssd(now);
            if crash_mid_rebuild {
                // A little rebuild traffic, then the plug is pulled with
                // repopulation still pending.
                for extra in 0..20u64 {
                    let lba = fault_roll(seed, 0xC0A5, extra, 0) % DRIVE_SPAN;
                    let req = Request::read(Lba::new(lba), now);
                    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                    now = system.submit(&req, &mut ctx).finished;
                }
                system = system.crash_and_recover();
            }
            // Rebuild rides host I/O: drive until the monitor reports the
            // replacement healthy again.
            let mut healthy = false;
            for extra in 0..2_500u64 {
                let lba = fault_roll(seed, 0x4EA1, extra, 0) % DRIVE_SPAN;
                let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                now = history
                    .read(&mut system, &mut ctx, lba, now, Accept::Acknowledged)
                    .finished;
                prop_assert!(history.violations.is_empty(), "rebuild: {:?}", history.violations);
                let health = system.report(now).health.expect("health enabled");
                if health.ssd == HealthState::Healthy {
                    healthy = true;
                    break;
                }
            }
            prop_assert!(healthy, "replacement SSD never rebuilt to Healthy");
            // Fresh service on the rebuilt array is exact, not merely
            // valid: the death must leave no lasting wound.
            for probe in 0..8u64 {
                let lba = fault_roll(seed, 0xF4E5, probe, 2) % SPAN;
                let content = block_for(probe.wrapping_mul(37) as u8);
                let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                let completion = history.write_content(&mut system, &mut ctx, lba, now, content);
                now = completion.finished;
                prop_assert!(!completion.failed(Lba::new(lba)), "healthy write refused");
                let completion = history.read(&mut system, &mut ctx, lba, now, Accept::Latest);
                now = completion.finished;
                prop_assert!(!completion.failed(Lba::new(lba)), "healthy read failed");
                prop_assert!(
                    history.violations.is_empty(),
                    "post-rebuild readback was stale: {:?}",
                    history.violations
                );
            }
        }
        // Final sweep over everything ever acknowledged: valid-or-typed,
        // and the controller's internal structures still cross-check.
        for lba in history.acknowledged() {
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            now = history
                .read(&mut system, &mut ctx, lba, now, Accept::Acknowledged)
                .finished;
        }
        prop_assert!(history.violations.is_empty(), "final sweep: {:?}", history.violations);
        system.debug_validate();
    }
}
