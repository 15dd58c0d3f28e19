//! Regenerates every figure and table of the paper's evaluation in one run
//! and emits a Markdown report (for EXPERIMENTS.md).
//!
//! Usage: `run_all [output.md] [--only <sel>[,<sel>...]] [--trace trace.jsonl]`
//! — honours `ICASH_OPS` / `ICASH_FULL=1`. `--only` reports just the
//! selected exhibits (`fig06` … `fig16`, `tab05`, `tab06`; see
//! `icash_bench::exhibits`) and runs only the workloads they read.

use icash_bench::cli::{only_from_args, positional_args};
use icash_bench::exhibits::{self, Exhibit};
use icash_bench::harness::{cell_table, run_plan, PlannedWorkload};
use std::fmt::Write as _;

/// The system with the best value in `rows`: the first maximum when
/// `higher_better`, else the last minimum.
fn winner<S: AsRef<str>>(rows: &[(S, f64)], higher_better: bool) -> String {
    let mut rows: Vec<(&str, f64)> = rows.iter().map(|(n, v)| (n.as_ref(), *v)).collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    if !higher_better {
        rows.reverse();
    }
    rows.first().map(|r| r.0.to_string()).unwrap_or_default()
}

/// Renders one exhibit; returns whether the measured winner is the paper's.
fn md_table(out: &mut String, ex: &Exhibit, measured: &[(String, f64)]) -> bool {
    let _ = writeln!(out, "### {}\n", ex.title);
    let _ = writeln!(
        out,
        "| System | Paper ({unit}) | Measured ({unit}) |\n|---|---:|---:|",
        unit = ex.unit
    );
    for (name, paper_v) in ex.paper {
        let measured = measured
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        let _ = writeln!(out, "| {name} | {paper_v:.2} | {measured:.2} |");
    }
    // Shape check: does the measured winner match the paper's?
    let paper_best = winner(ex.paper, ex.higher_better);
    let measured_best = winner(measured, ex.higher_better);
    let _ = writeln!(
        out,
        "\n*Paper winner: **{paper_best}**; measured winner: **{measured_best}**{}*\n",
        if paper_best == measured_best {
            " — shape reproduced."
        } else {
            " — deviation, see notes."
        }
    );
    paper_best == measured_best
}

/// Table 4 from the unscaled specs of the planned workloads.
fn table4(out: &mut String, plan: &[PlannedWorkload]) {
    let _ = writeln!(
        out,
        "### Table 4. Characteristics of benchmarks\n\n\
         | Name | #Read | #Write | AvgRead | AvgWrite | DataSize | VM RAM |\n\
         |---|---:|---:|---:|---:|---:|---:|"
    );
    for s in plan.iter().map(PlannedWorkload::spec) {
        let _ = writeln!(
            out,
            "| {} | {}K | {}K | {}B | {}B | {:.1}GB | {}MB |",
            s.name,
            s.table4_reads / 1000,
            s.table4_writes / 1000,
            s.avg_read_bytes,
            s.avg_write_bytes,
            s.data_bytes as f64 / (1 << 30) as f64,
            s.vm_ram_bytes >> 20
        );
    }
    out.push('\n');
}

const NOTES: &str = r#"
## Notes on deviations

* **CPU-utilization "winners" (Figs 6b/8b/10b)**: the paper's utilizations
  cluster within a few percent ("the difference less than 4%", §5.1); the
  winner-check on a near-tie metric is noise. The reproduced property is
  that I-CASH's codec overhead does *not* blow up CPU use — its utilization
  lands within a few points of pure SSD, as in the paper — while the
  disk-bound systems idle the CPU.
* **Read response times (Figs 7/9/11)**: the paper reports I-CASH reads
  *faster* than pure SSD (18 vs 35 us) — an artifact of its ioDrive's
  region-dependent latency ("randomly accessing a 10 MB file [vs] a 1 GB
  file ... is about 15 us", §5.1) that our flash model does not have. Our
  I-CASH reads are microsecond-scale from RAM/flash but carry a small
  (<1 %) mechanical tail from packed-log fetches, which dominates the
  *mean* in scaled runs; FusionIO has no mechanical tail by construction.
  Write responses reproduce the paper's shape (I-CASH ~5-10x below every
  flash-writing system) on every workload.
* **Figure 10(a)**: measured I-CASH and FusionIO tie within 1 % (both
  demand-capped); the paper separates them by 14 %.
* **Figure 12 (LoadSim)**: FusionIO wins, as in the paper; but our RAID0's
  four spindles beat I-CASH's single HDD under the nearly-random 17.5 GB
  workload, where the paper has I-CASH 2.4x ahead of RAID0. I-CASH still
  beats the same-budget LRU and Dedup caches.
* **Figure 16 (five RUBiS VMs)**: I-CASH lands below FusionIO instead of
  20 % above — a read-dominated case gives our model no write-side flash
  saturation for I-CASH to exploit — while beating the address-keyed
  caches by roughly the paper's margins.
* **Table 5 (TPC-C column)**: paper and measurement both show the four
  SSD-bearing systems within ~10 % of each other and RAID0 2.5-4x worse;
  the within-cluster winner differs (a near-tie).

## Sensitivity to device command queueing (DESIGN.md §15)

Every number above is a `queue = off` run — the default build is pinned
byte-identical to the pre-queue engine (`./ci.sh queue` diffs the trace
JSONL and `run_faults` stdout against the same goldens as the pipeline
and scale gates), so nothing in this report moves unless
`ICASH_QUEUE_DEPTH` is set. What moves when it is:

* **HDD service time** is the sensitive quantity. `ablation_queue_depth`
  (SysBench, 8000 ops) tracks virtual HDD service ns per thousand host
  ops: 33 685 186 queue-off falling to 31 397 043 at NCQ depth 8, where
  it saturates — once the whole group-commit cadence parks in the
  write-behind cache and drains as one coalesced burst, extra depth has
  nothing left to merge (`BENCH_queue.json` pins the trajectory).
* **Throughput moves only where the HDD is on the critical path.** The
  paper-exhibit cells are flash/RAM-bound after quick-mode scaling, so
  their tx/s barely shift. The HDD-bound pressure variant
  (`ICASH_ABL_SPEC=pressure`: delta-unfriendly writes, uniform access,
  RAM/64) gains ~3 % tx/s at depth 32, and `run_scale` on the same spec
  at 16 shards clears its queue-on > queue-off assert (3 971 vs
  3 856 ops/s) — the gap the gate enforces.
* **Invariants that do not move**: bytes returned by every read, bytes
  reaching HDD media after a durability barrier, flash wear/erase
  counts, and `stats.busy` on the SSD (queues reschedule time, they do
  not invent it). `tests/queue_free.rs` holds the differential.
"#;

fn main() {
    let selected = match exhibits::select(only_from_args().as_deref()) {
        Ok(selected) => selected,
        Err(msg) => {
            eprintln!("run_all: {msg}");
            std::process::exit(2);
        }
    };
    let out_path = positional_args().into_iter().next();
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Regenerated by `cargo run --release -p icash-bench --bin run_all`.\n\
         Quick mode scales each workload's data set and device budgets by the\n\
         ops ratio (see `WorkloadSpec::scaled_to_ops`); absolute numbers are\n\
         simulator-scale, the reproduction target is the *shape* — ordering,\n\
         rough factors, crossovers. `ICASH_FULL=1` runs the Table 4 op counts.\n"
    );

    // One plan, one worker pool: every (system x workload) cell below runs
    // concurrently on its own virtual clock (ICASH_THREADS workers).
    let workloads = exhibits::workloads(&selected);
    let plan: Vec<PlannedWorkload> = workloads.iter().map(|w| w.plan()).collect();
    table4(&mut md, &plan);
    let results = run_plan(&plan);
    let cells = cell_table(&results);
    eprintln!("{cells}");

    let mut reproduced = 0;
    for ex in &selected {
        let i = workloads
            .iter()
            .position(|w| *w == ex.workload)
            .expect("the plan holds every selected exhibit's workload");
        let (spec, runs) = &results[i];
        if md_table(&mut md, ex, &ex.measure(spec, runs)) {
            reproduced += 1;
        }
    }
    let _ = writeln!(
        md,
        "\n**Winner-shape summary: {reproduced}/{} exhibits reproduce the paper's winner.**",
        selected.len()
    );
    let _ = writeln!(md, "\n## Harness cell timings\n\n{cells}");
    md.push_str(NOTES);

    match out_path {
        Some(path) => {
            std::fs::write(&path, &md).expect("write report");
            eprintln!("wrote {path}");
        }
        None => print!("{md}"),
    }
}
