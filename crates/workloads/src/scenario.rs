//! The scenario engine: campaign-level workload drivers.
//!
//! The base benchmarks ([`run_benchmark`](crate::driver::run_benchmark))
//! are stationary and closed-loop. This module layers three scenario
//! drivers on top, all on the same seeded virtual-time contract:
//!
//! * **Block-trace replay** — [`replay`](crate::replay) parses
//!   MSR-Cambridge-style CSV and [`ScenarioKind::Replay`] pushes it
//!   through the closed-loop driver with the seeded content overlay.
//! * **Open-loop arrivals** — [`ArrivalShape`] names the canonical
//!   [`ArrivalConfig`] schedules (stationary, diurnal sine, flash-crowd
//!   bursts) that the driver's [`Pacing::Open`](crate::driver::Pacing)
//!   dispatches: requests arrive whether or not a client is free, so
//!   queueing time becomes a real, measured quantity (emitted as
//!   `OpenLoopArrival` trace events).
//! * **Tenant-churn storms** — [`ChurnStorm`] scales
//!   [`MultiVm`](crate::vm::MultiVm) fleets with thousands of seeded VM
//!   create/clone/destroy events while the benchmark runs.
//!
//! Everything here is deterministic from `(config, seed)`: no wall clock,
//! no host randomness, byte-identical reports across thread counts.

#![deny(clippy::unwrap_used)]

use crate::arrivals::ArrivalConfig;
use crate::spec::WorkloadSpec;
use crate::vm::MultiVm;
use crate::workload::Workload;
use icash_storage::time::Ns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which scenario driver a campaign cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Replay an MSR-style block trace through the closed-loop driver.
    Replay,
    /// Open-loop arrivals from a virtual-time event queue.
    OpenLoop,
    /// A tenant-churn storm over a multi-VM fleet.
    Churn,
}

impl ScenarioKind {
    /// Every scenario kind, in campaign order.
    pub const ALL: [ScenarioKind; 3] = [
        ScenarioKind::Replay,
        ScenarioKind::OpenLoop,
        ScenarioKind::Churn,
    ];

    /// Parses the `ICASH_SCENARIO` spelling of a kind.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "replay" => Some(ScenarioKind::Replay),
            "open-loop" | "openloop" | "open_loop" => Some(ScenarioKind::OpenLoop),
            "churn" => Some(ScenarioKind::Churn),
            _ => None,
        }
    }

    /// The canonical knob spelling.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::Replay => "replay",
            ScenarioKind::OpenLoop => "open-loop",
            ScenarioKind::Churn => "churn",
        }
    }
}

/// The shape of an open-loop arrival process (`ICASH_ARRIVAL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Constant mean rate with exponential jitter.
    Stationary,
    /// Day/night sine swing over the run.
    Diurnal,
    /// Diurnal swing plus periodic flash-crowd bursts.
    Burst,
}

impl ArrivalShape {
    /// Every shape, in campaign order.
    pub const ALL: [ArrivalShape; 3] = [
        ArrivalShape::Stationary,
        ArrivalShape::Diurnal,
        ArrivalShape::Burst,
    ];

    /// Parses the `ICASH_ARRIVAL` spelling of a shape.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "stationary" => Some(ArrivalShape::Stationary),
            "diurnal" => Some(ArrivalShape::Diurnal),
            "burst" => Some(ArrivalShape::Burst),
            _ => None,
        }
    }

    /// The canonical knob spelling.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalShape::Stationary => "stationary",
            ArrivalShape::Diurnal => "diurnal",
            ArrivalShape::Burst => "burst",
        }
    }

    /// The canonical [`ArrivalConfig`] for this shape around `base_gap`.
    /// Periods are multiples of the gap so a few-hundred-op run still
    /// sweeps full day/night cycles and several burst windows.
    pub fn config(&self, base_gap: Ns) -> ArrivalConfig {
        let cfg = ArrivalConfig::stationary(base_gap);
        match self {
            ArrivalShape::Stationary => cfg,
            ArrivalShape::Diurnal => cfg.with_diurnal(0.9, base_gap * 256),
            ArrivalShape::Burst => cfg.with_diurnal(0.9, base_gap * 256).with_burst(
                base_gap * 512,
                base_gap * 64,
                16.0,
            ),
        }
    }
}

/// One scenario cell: which driver, and (for open loop) which arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// The driver.
    pub kind: ScenarioKind,
    /// Arrival shape; meaningful only for [`ScenarioKind::OpenLoop`].
    pub arrival: ArrivalShape,
}

/// Parameters of a tenant-churn storm.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// VMs booted before the run starts.
    pub initial_vms: u8,
    /// Hard cap on live VMs (≤ 255: the LBA tag is one byte).
    pub max_live: usize,
    /// Total churn events to apply over the run.
    pub events: u64,
    /// Operations between consecutive events.
    pub ops_per_event: u64,
}

/// What a storm actually did, for campaign assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// VMs booted with a fresh spec.
    pub created: u64,
    /// VMs cloned from a live image (shared content lineage).
    pub cloned: u64,
    /// VMs destroyed.
    pub destroyed: u64,
    /// Events applied in total.
    pub applied: u64,
    /// Most VMs ever live at once.
    pub peak_live: usize,
}

/// A [`MultiVm`] fleet under a seeded create/clone/destroy storm: every
/// `ops_per_event` operations one weighted churn event fires, clones
/// favoured (cloud fleets grow by cloning images — the redundancy I-CASH
/// mines), until `events` have been applied. Fully deterministic from the
/// seed; the fleet never drains below one VM or grows past `max_live`.
#[derive(Debug)]
pub struct ChurnStorm {
    fleet: MultiVm,
    template: WorkloadSpec,
    cfg: ChurnConfig,
    rng: StdRng,
    ops_since_event: u64,
    stats: ChurnStats,
}

impl ChurnStorm {
    /// Builds a storm over an initial homogeneous fleet of
    /// `cfg.initial_vms` clones of `template`.
    ///
    /// # Panics
    ///
    /// Panics when the cap is outside `initial_vms..=255` or no events
    /// are requested.
    pub fn new(template: WorkloadSpec, cfg: ChurnConfig, seed: u64) -> Self {
        assert!(
            (cfg.initial_vms as usize..=255).contains(&cfg.max_live),
            "max_live must be in initial_vms..=255"
        );
        assert!(cfg.events > 0, "a storm needs at least one event");
        let t = template.clone();
        let fleet = MultiVm::homogeneous(cfg.initial_vms, seed, move |i| (t.clone(), i as u64));
        let mut storm = ChurnStorm {
            fleet,
            template,
            cfg,
            rng: StdRng::seed_from_u64(seed ^ 0x00C0_FFEE),
            ops_since_event: 0,
            stats: ChurnStats::default(),
        };
        storm.stats.peak_live = storm.fleet.vm_count();
        storm
    }

    /// The storm's tallies so far.
    pub fn stats(&self) -> &ChurnStats {
        &self.stats
    }

    /// Live VMs right now.
    pub fn live(&self) -> usize {
        self.fleet.vm_count()
    }

    /// Applies one weighted churn event: clone (50 %), create (20 %),
    /// destroy (30 %), with the guards that keep the fleet in
    /// `1..=max_live`.
    fn churn_once(&mut self) {
        let roll = self.rng.random_range(0u32..10);
        let seed = self.rng.random::<u64>();
        let live = self.fleet.vm_count();
        if roll < 5 && live < self.cfg.max_live {
            let ids = self.fleet.live_ids();
            let src = ids[self.rng.random_range(0..ids.len())];
            if self.fleet.clone_vm(src, seed).is_some() {
                self.stats.cloned += 1;
            }
        } else if roll < 7 && live < self.cfg.max_live {
            if self.fleet.create_vm(self.template.clone(), seed).is_some() {
                self.stats.created += 1;
            }
        } else if live > 1 {
            let ids = self.fleet.live_ids();
            let victim = ids[self.rng.random_range(0..ids.len())];
            if self.fleet.destroy_vm(victim) {
                self.stats.destroyed += 1;
            }
        }
        self.stats.applied += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.fleet.vm_count());
    }
}

impl Workload for ChurnStorm {
    fn spec(&self) -> &WorkloadSpec {
        self.fleet.spec()
    }

    fn address_universe(&self) -> Vec<(u8, u64)> {
        self.fleet.address_universe()
    }

    fn next_op(&mut self) -> crate::workload::WorkloadOp {
        if self.stats.applied < self.cfg.events {
            self.ops_since_event += 1;
            if self.ops_since_event >= self.cfg.ops_per_event {
                self.ops_since_event = 0;
                self.churn_once();
            }
        }
        self.fleet.next_op()
    }
}

/// The canonical campaign storm: five VMs of a shrunken TPC-C image under
/// thousands of churn events (one per operation, capped at `events`),
/// fleet capped at 64 live VMs.
pub fn churn_storm(seed: u64, events: u64) -> ChurnStorm {
    let mut template = crate::tpcc::spec();
    // Small per-VM images keep the storm fast while the fleet scales; the
    // SSD/RAM budget shrinks with them so caching stays a real contest.
    template.data_bytes = 16 << 20;
    template.ssd_bytes = 8 << 20;
    template.ram_bytes = 8 << 20;
    template.active_fraction = 0.5;
    ChurnStorm::new(
        template,
        ChurnConfig {
            initial_vms: 5,
            max_live: 64,
            events: events.max(1),
            ops_per_event: 1,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_spellings_round_trip() {
        for k in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::parse(k.name()), Some(k));
        }
        for a in ArrivalShape::ALL {
            assert_eq!(ArrivalShape::parse(a.name()), Some(a));
        }
        assert_eq!(
            ScenarioKind::parse("openloop"),
            Some(ScenarioKind::OpenLoop)
        );
        assert_eq!(ScenarioKind::parse("chaos"), None);
        assert_eq!(ArrivalShape::parse("tsunami"), None);
    }

    #[test]
    fn storm_applies_thousands_of_events_within_the_cap() {
        let mut storm = churn_storm(11, 2_000);
        for _ in 0..3_000 {
            let op = storm.next_op();
            assert!(op.lba.vm_id() >= 1, "every op carries a live VM tag");
        }
        let s = *storm.stats();
        assert_eq!(s.applied, 2_000, "the storm ran its full event budget");
        assert!(s.cloned > 0 && s.created > 0 && s.destroyed > 0);
        assert!(s.peak_live > 5, "the fleet grew past its initial size");
        assert!(s.peak_live <= 64, "and never past the cap");
        assert!(storm.live() >= 1);
    }

    #[test]
    fn storm_is_deterministic() {
        let run = || {
            let mut storm = churn_storm(4, 500);
            let ops: Vec<_> = (0..800).map(|_| storm.next_op()).collect();
            (ops, *storm.stats())
        };
        assert_eq!(run(), run());
    }
}
