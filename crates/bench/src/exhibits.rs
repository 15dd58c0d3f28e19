//! The paper's evaluation as one table: every figure and table `run_all`
//! reports, with the paper's values and the metric that measures it.
//!
//! Each [`Exhibit`] reads the five-system results of exactly one
//! [`PaperWorkload`]; its `selector` (`fig06` … `tab06`) is what
//! `run_all --only` accepts. Selecting exhibits selects the workloads they
//! read, so a filtered run replays only those cells.

use crate::harness::PlannedWorkload;
use icash_metrics::report::{metric_rows, normalize};
use icash_metrics::summary::RunSummary;
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::vm::{rubis_five_vms, tpcc_five_vms};
use icash_workloads::{hadoop, loadsim, rubis, specsfs, sysbench, tpcc};

/// A workload of the paper's evaluation (Table 4), in plan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperWorkload {
    /// SysBench OLTP (Figs 6-7).
    SysBench,
    /// Hadoop WordCount (Figs 8-9).
    Hadoop,
    /// TPC-C (Figs 10-11).
    Tpcc,
    /// Exchange LoadSim (Fig 12).
    LoadSim,
    /// SPECsfs NFS server (Fig 13).
    SpecSfs,
    /// RUBiS auction site (Fig 14).
    Rubis,
    /// Five consolidated TPC-C VMs (Fig 15).
    TpccVms,
    /// Five consolidated RUBiS VMs (Fig 16).
    RubisVms,
}

impl PaperWorkload {
    /// Every workload, in the order a full run plans them.
    pub const ALL: [PaperWorkload; 8] = [
        PaperWorkload::SysBench,
        PaperWorkload::Hadoop,
        PaperWorkload::Tpcc,
        PaperWorkload::LoadSim,
        PaperWorkload::SpecSfs,
        PaperWorkload::Rubis,
        PaperWorkload::TpccVms,
        PaperWorkload::RubisVms,
    ];

    /// The workload as the harness runs it.
    pub fn plan(self) -> PlannedWorkload {
        match self {
            PaperWorkload::SysBench => PlannedWorkload::Standard(sysbench::spec()),
            PaperWorkload::Hadoop => PlannedWorkload::Standard(hadoop::spec()),
            PaperWorkload::Tpcc => PlannedWorkload::Standard(tpcc::spec()),
            PaperWorkload::LoadSim => PlannedWorkload::Standard(loadsim::spec()),
            PaperWorkload::SpecSfs => PlannedWorkload::Standard(specsfs::spec()),
            PaperWorkload::Rubis => PlannedWorkload::Standard(rubis::spec()),
            PaperWorkload::TpccVms => PlannedWorkload::MultiVm(tpcc_five_vms),
            PaperWorkload::RubisVms => PlannedWorkload::MultiVm(rubis_five_vms),
        }
    }
}

/// Measures an exhibit from its workload's scaled spec and the five
/// summaries in [`SystemKind::ALL`](crate::SystemKind::ALL) order: one
/// `(system, value)` row per system.
pub type Metric = fn(&WorkloadSpec, &[RunSummary]) -> Vec<(String, f64)>;

/// One paper-vs-measured exhibit.
#[derive(Debug)]
pub struct Exhibit {
    /// The `run_all --only` selector that picks this exhibit.
    pub selector: &'static str,
    /// The workload whose cells the metric reads.
    pub workload: PaperWorkload,
    /// Heading, as the paper captions it.
    pub title: &'static str,
    /// Unit of both the paper and the measured values.
    pub unit: &'static str,
    /// The paper's value per system; the systems reported.
    pub paper: &'static [(&'static str, f64)],
    /// How the measured values are computed.
    pub metric: Metric,
    /// Whether the winner is the largest value (else the smallest).
    pub higher_better: bool,
}

impl Exhibit {
    /// The measured rows for the systems the paper reports, in cell order.
    pub fn measure(&self, spec: &WorkloadSpec, runs: &[RunSummary]) -> Vec<(String, f64)> {
        let mut rows = (self.metric)(spec, runs);
        rows.retain(|(name, _)| self.paper.iter().any(|(p, _)| p == name));
        rows
    }
}

/// Paper values for all five systems, in [`SystemKind::ALL`](crate::SystemKind::ALL) order.
const fn five(v: [f64; 5]) -> [(&'static str, f64); 5] {
    [
        ("FusionIO", v[0]),
        ("RAID0", v[1]),
        ("Dedup", v[2]),
        ("LRU", v[3]),
        ("I-CASH", v[4]),
    ]
}

/// Transaction rate normalized to FusionIO's (Figs 15-16).
fn rate_vs_fusionio(_: &WorkloadSpec, runs: &[RunSummary]) -> Vec<(String, f64)> {
    normalize(
        &metric_rows(runs, RunSummary::transactions_per_sec),
        "FusionIO",
    )
}

/// Every exhibit of the paper's evaluation, in report order.
pub const EXHIBITS: [Exhibit; 21] = [
    Exhibit {
        selector: "fig06",
        workload: PaperWorkload::SysBench,
        title: "Figure 6(a). SysBench transaction rate",
        unit: "tx/s",
        paper: &five([180.0, 85.0, 161.0, 175.0, 190.0]),
        metric: |_, runs| metric_rows(runs, RunSummary::transactions_per_sec),
        higher_better: true,
    },
    Exhibit {
        selector: "fig06",
        workload: PaperWorkload::SysBench,
        title: "Figure 6(b). SysBench CPU utilization",
        unit: "%",
        paper: &five([52.0, 53.0, 53.0, 56.0, 55.0]),
        metric: |_, runs| metric_rows(runs, |s| s.cpu_utilization * 100.0),
        higher_better: true,
    },
    Exhibit {
        selector: "fig06",
        workload: PaperWorkload::SysBench,
        title: "Figure 7. SysBench read response time",
        unit: "us",
        paper: &five([35.0, 192.0, 71.0, 36.0, 18.0]),
        metric: |_, runs| metric_rows(runs, RunSummary::read_mean_us),
        higher_better: false,
    },
    Exhibit {
        selector: "fig06",
        workload: PaperWorkload::SysBench,
        title: "Figure 7. SysBench write response time",
        unit: "us",
        paper: &five([75.0, 1156.0, 106.0, 122.0, 7.0]),
        metric: |_, runs| metric_rows(runs, RunSummary::write_mean_us),
        higher_better: false,
    },
    Exhibit {
        selector: "fig08",
        workload: PaperWorkload::Hadoop,
        title: "Figure 8(a). Hadoop execution time",
        unit: "s (scaled)",
        paper: &five([24.0, 32.0, 26.0, 25.0, 18.0]),
        metric: |_, runs| metric_rows(runs, |s| s.elapsed.as_secs_f64()),
        higher_better: false,
    },
    Exhibit {
        selector: "fig08",
        workload: PaperWorkload::Hadoop,
        title: "Figure 8(b). Hadoop CPU utilization",
        unit: "%",
        paper: &five([83.0, 73.0, 82.0, 84.0, 86.0]),
        metric: |_, runs| metric_rows(runs, |s| s.cpu_utilization * 100.0),
        higher_better: true,
    },
    Exhibit {
        selector: "fig08",
        workload: PaperWorkload::Hadoop,
        title: "Figure 9. Hadoop write response time",
        unit: "us",
        paper: &five([7301.0, 3244.0, 7520.0, 7405.0, 586.0]),
        metric: |_, runs| metric_rows(runs, RunSummary::write_mean_us),
        higher_better: false,
    },
    Exhibit {
        selector: "fig10",
        workload: PaperWorkload::Tpcc,
        title: "Figure 10(a). TPC-C transaction rate",
        unit: "tx/s",
        paper: &five([51.0, 40.0, 49.0, 50.0, 58.0]),
        metric: |_, runs| metric_rows(runs, RunSummary::transactions_per_sec),
        higher_better: true,
    },
    Exhibit {
        selector: "fig10",
        workload: PaperWorkload::Tpcc,
        title: "Figure 10(b). TPC-C CPU utilization",
        unit: "%",
        paper: &five([51.0, 41.0, 52.0, 61.0, 62.0]),
        metric: |_, runs| metric_rows(runs, |s| s.cpu_utilization * 100.0),
        higher_better: true,
    },
    Exhibit {
        selector: "fig10",
        workload: PaperWorkload::Tpcc,
        title: "Figure 11. TPC-C application response time",
        unit: "ms",
        paper: &five([6.6, 14.0, 12.0, 7.1, 2.6]),
        // Application response: the mean request response times the
        // requests one transaction issues.
        metric: |spec, runs| {
            let per_tx = spec.ops_per_transaction as f64;
            metric_rows(runs, |s| s.mean_response_ms() * per_tx)
        },
        higher_better: false,
    },
    Exhibit {
        selector: "fig12",
        workload: PaperWorkload::LoadSim,
        title: "Figure 12. LoadSim score (lower is better)",
        unit: "score",
        paper: &five([1803.0, 5340.0, 3259.0, 3002.0, 2263.0]),
        // LoadSim scores weight client-observed response, which includes
        // Exchange server processing: (4 ms server + mean storage) x 420.
        metric: |_, runs| metric_rows(runs, |s| (4.0 + s.mean_response_ms()) * 420.0),
        higher_better: false,
    },
    Exhibit {
        selector: "fig13",
        workload: PaperWorkload::SpecSfs,
        title: "Figure 13. SPEC-sfs response time",
        unit: "ms",
        paper: &five([1.4, 1.8, 2.1, 2.1, 1.5]),
        // SPECsfs reports NFS response: 1.2 ms of server and network time
        // on top of the storage response.
        metric: |_, runs| metric_rows(runs, |s| 1.2 + s.mean_response_ms()),
        higher_better: false,
    },
    Exhibit {
        selector: "fig14",
        workload: PaperWorkload::Rubis,
        title: "Figure 14. RUBiS request rate",
        unit: "req/s",
        paper: &five([84.0, 48.0, 59.0, 73.0, 76.0]),
        metric: |_, runs| metric_rows(runs, RunSummary::transactions_per_sec),
        higher_better: true,
    },
    Exhibit {
        selector: "fig15",
        workload: PaperWorkload::TpccVms,
        title: "Figure 15. Five TPC-C VMs, normalized tx rate",
        unit: "x FusionIO",
        paper: &five([1.0, 0.4, 0.5, 0.4, 2.8]),
        metric: rate_vs_fusionio,
        higher_better: true,
    },
    Exhibit {
        selector: "fig16",
        workload: PaperWorkload::RubisVms,
        title: "Figure 16. Five RUBiS VMs, normalized request rate",
        unit: "x FusionIO",
        paper: &five([1.0, 0.2, 0.3, 0.3, 1.2]),
        metric: rate_vs_fusionio,
        higher_better: true,
    },
    Exhibit {
        selector: "tab05",
        workload: PaperWorkload::Hadoop,
        title: "Table 5 (Hadoop column). Energy",
        unit: "Wh (scaled)",
        paper: &five([8.0, 24.0, 10.0, 10.0, 7.0]),
        metric: |_, runs| metric_rows(runs, |s| s.energy_wh),
        higher_better: false,
    },
    Exhibit {
        selector: "tab05",
        workload: PaperWorkload::Tpcc,
        title: "Table 5 (TPC-C column). Energy",
        unit: "Wh (scaled)",
        paper: &five([11.0, 28.0, 11.0, 12.0, 11.0]),
        metric: |_, runs| metric_rows(runs, |s| s.energy_wh),
        higher_better: false,
    },
    // Table 6 omits RAID0, which has no SSD.
    Exhibit {
        selector: "tab06",
        workload: PaperWorkload::SysBench,
        title: "Table 6 (SysBench column). SSD write requests",
        unit: "writes",
        paper: &[
            ("FusionIO", 893_700.0),
            ("Dedup", 1_419_023.0),
            ("LRU", 1_494_220.0),
            ("I-CASH", 232_452.0),
        ],
        metric: |_, runs| metric_rows(runs, |s| s.ssd_writes as f64),
        higher_better: false,
    },
    Exhibit {
        selector: "tab06",
        workload: PaperWorkload::Hadoop,
        title: "Table 6 (Hadoop column). SSD write requests",
        unit: "writes",
        paper: &[
            ("FusionIO", 2_540_124.0),
            ("Dedup", 3_082_196.0),
            ("LRU", 3_469_785.0),
            ("I-CASH", 1_521_399.0),
        ],
        metric: |_, runs| metric_rows(runs, |s| s.ssd_writes as f64),
        higher_better: false,
    },
    Exhibit {
        selector: "tab06",
        workload: PaperWorkload::Tpcc,
        title: "Table 6 (TPC-C column). SSD write requests",
        unit: "writes",
        paper: &[
            ("FusionIO", 1_173_741.0),
            ("Dedup", 1_963_988.0),
            ("LRU", 2_051_511.0),
            ("I-CASH", 359_919.0),
        ],
        metric: |_, runs| metric_rows(runs, |s| s.ssd_writes as f64),
        higher_better: false,
    },
    Exhibit {
        selector: "tab06",
        workload: PaperWorkload::SpecSfs,
        title: "Table 6 (SPECsfs column). SSD write requests",
        unit: "writes",
        paper: &[
            ("FusionIO", 5_752_436.0),
            ("Dedup", 5_559_698.0),
            ("LRU", 5_514_935.0),
            ("I-CASH", 5_096_890.0),
        ],
        metric: |_, runs| metric_rows(runs, |s| s.ssd_writes as f64),
        higher_better: false,
    },
];

/// The selectors `--only` accepts, in report order (the table lists each
/// selector's exhibits together).
pub fn selectors() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = EXHIBITS.iter().map(|ex| ex.selector).collect();
    out.dedup();
    out
}

/// The exhibits `only` picks, in report order: all of them for `None`,
/// else those whose selector appears in the comma-separated list.
///
/// # Errors
///
/// Returns a message naming the first unknown selector and listing the
/// valid ones.
pub fn select(only: Option<&str>) -> Result<Vec<&'static Exhibit>, String> {
    let Some(only) = only else {
        return Ok(EXHIBITS.iter().collect());
    };
    let wanted: Vec<&str> = only.split(',').map(str::trim).collect();
    let valid = selectors();
    if let Some(bad) = wanted.iter().find(|w| !valid.contains(w)) {
        return Err(format!(
            "unknown exhibit selector {bad:?} in --only {only:?}; valid selectors: {}",
            valid.join(", ")
        ));
    }
    Ok(EXHIBITS
        .iter()
        .filter(|ex| wanted.contains(&ex.selector))
        .collect())
}

/// The workloads `exhibits` read, each once, in plan order.
pub fn workloads(exhibits: &[&Exhibit]) -> Vec<PaperWorkload> {
    PaperWorkload::ALL
        .into_iter()
        .filter(|w| exhibits.iter().any(|ex| ex.workload == *w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemKind;

    #[test]
    fn full_table_has_every_exhibit_and_workload() {
        let all = select(None).expect("no filter");
        assert_eq!(all.len(), 21);
        assert_eq!(workloads(&all), PaperWorkload::ALL);
    }

    #[test]
    fn paper_rows_name_the_five_systems() {
        let spec = sysbench::spec().scaled_to_ops(300);
        let names: Vec<String> = SystemKind::ALL
            .iter()
            .map(|kind| kind.build(&spec).name().to_string())
            .collect();
        for ex in &EXHIBITS {
            for (system, _) in ex.paper {
                assert!(names.iter().any(|n| n == system), "{}: {system}", ex.title);
            }
        }
    }

    #[test]
    fn every_selector_picks_exhibits_and_a_subsequence_of_the_plan() {
        let expected = [
            "fig06", "fig08", "fig10", "fig12", "fig13", "fig14", "fig15", "fig16", "tab05",
            "tab06",
        ];
        assert_eq!(selectors(), expected);
        for sel in expected {
            let picked = select(Some(sel)).expect("valid selector");
            assert!(!picked.is_empty(), "{sel} picks nothing");
            assert!(picked.iter().all(|ex| ex.selector == sel));
            let plan = workloads(&picked);
            let mut full = PaperWorkload::ALL.iter();
            assert!(
                plan.iter().all(|w| full.any(|f| f == w)),
                "{sel}: {plan:?} is not in plan order"
            );
        }
        let both = select(Some("tab06,fig13")).expect("valid selectors");
        assert_eq!(both.len(), 5);
        assert_eq!(
            workloads(&both),
            [
                PaperWorkload::SysBench,
                PaperWorkload::Hadoop,
                PaperWorkload::Tpcc,
                PaperWorkload::SpecSfs
            ]
        );
    }

    #[test]
    fn unknown_selector_lists_the_valid_ones() {
        let err = select(Some("fig13,nope")).expect_err("nope is not a selector");
        assert!(err.contains("\"nope\""), "got: {err}");
        for sel in selectors() {
            assert!(err.contains(sel), "{sel} missing from: {err}");
        }
        assert!(select(Some("")).is_err());
    }
}
