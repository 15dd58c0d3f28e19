//! Turns measured runs into the named metrics the benchmark reports.

use crate::host::Host;
use crate::{median, quantile, Run, Submit};
use icash_core::IcashStats;
use icash_metrics::summary::RunSummary;
use icash_storage::trace::TraceStats;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Samples the value was taken over: runs for medians of per-run
    /// figures, requests for percentiles and means, 1 for a count.
    pub samples: u64,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// CPU seconds of a phase.
fn cpu_secs(host: Host) -> f64 {
    secs(host.cpu_ns)
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The median over runs of a per-run phase's CPU time, in seconds.
fn median_cpu_secs(runs: &[Run], f: impl Fn(&Run) -> Host) -> f64 {
    median(runs.iter().map(|r| cpu_secs(f(r))).collect())
}

/// Quantile `q` of the host time of the selected submits, pooled over
/// `runs`, in microseconds; with the sample count.
fn host_us(runs: &[Run], keep: impl Fn(&Submit) -> bool, q: f64) -> (f64, u64) {
    let mut v: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.submits)
        .filter(|s| keep(s))
        .map(|s| s.host_ns as f64 / 1e3)
        .collect();
    let n = v.len() as u64;
    (quantile(&mut v, q), n)
}

/// Simulated latencies of the steady reads (or writes), in µs.
fn sim_us(run: &Run, read: bool) -> Vec<f64> {
    run.submits
        .iter()
        .filter(|s| s.steady && s.read == read)
        .map(|s| s.virt.as_ns() as f64 / 1e3)
        .collect()
}

/// The simulated end-to-end figures of one run: virtual transactions per
/// second (the mean over parts) and energy per thousand ops.
///
/// They depend only on the inputs, as do those of [`sim_layer`] and
/// [`sim_printed`], so every run of the same inputs must give identical
/// values. Only throughput and energy are gated end to end: latency and
/// wear vary too much from one seed to the next to gate a change by a
/// tolerance (SysBench's SSD writes differ sevenfold between seeds).
pub fn sim_end_to_end(run: &Run) -> Vec<Metric> {
    let tps: Vec<f64> = run
        .summaries
        .iter()
        .map(RunSummary::transactions_per_sec)
        .collect();
    let energy_j: f64 = run.summaries.iter().map(|s| s.energy_wh * 3600.0).sum();
    let steady: u64 = run.summaries.iter().map(|s| s.steady_ops).sum();
    vec![
        metric("sim_tps", mean(&tps), "tx/s", steady),
        metric(
            "energy_j_per_kop",
            ratio(energy_j, run.ops() as f64 / 1e3),
            "J/kop",
            run.ops(),
        ),
    ]
}

/// The simulated latency figures, reported per layer (wear is
/// `ssd.programs_per_kop`).
pub fn sim_layer(run: &Run) -> Vec<Metric> {
    let mut reads = sim_us(run, true);
    let writes = sim_us(run, false);
    let (n_reads, n_writes) = (reads.len() as u64, writes.len() as u64);
    vec![
        metric("sim.read_mean_us", mean(&reads), "us", n_reads),
        metric("sim.read_p99_us", quantile(&mut reads, 0.99), "us", n_reads),
        metric("sim.write_mean_us", mean(&writes), "us", n_writes),
    ]
}

/// Simulated figures that are printed but not reported: the latency
/// medians and the write tail sit on fixed model costs (1.8 µs for a write
/// absorbed in RAM, 200 µs for an SSD program), so they read the same for
/// most seeds.
pub fn sim_printed(run: &Run) -> Vec<Metric> {
    let mut reads = sim_us(run, true);
    let mut writes = sim_us(run, false);
    let (n_reads, n_writes) = (reads.len() as u64, writes.len() as u64);
    vec![
        metric("sim.read_p50_us", quantile(&mut reads, 0.5), "us", n_reads),
        metric(
            "sim.write_p50_us",
            quantile(&mut writes, 0.5),
            "us",
            n_writes,
        ),
        metric(
            "sim.write_p99_us",
            quantile(&mut writes, 0.99),
            "us",
            n_writes,
        ),
    ]
}

/// Every simulated figure of one run.
pub fn simulated(run: &Run) -> Vec<Metric> {
    [sim_end_to_end(run), sim_layer(run), sim_printed(run)].concat()
}

/// The end-to-end figures over the untraced runs: host times as medians
/// over runs (per-submit percentiles pooled over them), simulated figures
/// from the first run (all runs agree).
pub fn end_to_end(runs: &[Run], peak_rss_mb: f64) -> Vec<Metric> {
    let n = runs.len() as u64;
    let (p50, submits) = host_us(runs, |_| true, 0.5);
    let (p99, _) = host_us(runs, |_| true, 0.99);
    let replay_rates = runs
        .iter()
        .map(|r| ratio(r.ops() as f64, cpu_secs(r.replay)))
        .collect();
    let mut out = vec![
        metric("setup_s", median_cpu_secs(runs, Run::setup), "s", n),
        metric("replay_ops_per_s", median(replay_rates), "ops/s", n),
        metric("host_op_p50_us", p50, "us", submits),
        metric("host_op_p99_us", p99, "us", submits),
        metric("peak_rss_mb", peak_rss_mb, "MB", 1),
    ];
    out.extend(sim_end_to_end(&runs[0]));
    out
}

/// The per-layer figures: simulated latency, host times over the untraced
/// runs, counts from the traced run (summed over its parts), and the
/// tracing overhead.
pub fn per_layer(runs: &[Run], traced: &Run) -> Vec<Metric> {
    let n = runs.len() as u64;
    let ops = traced.ops();
    let per_kop = |count: u64| ratio(count as f64, ops as f64 / 1e3);
    // Counter growth during the replays, and counter values after preload.
    let stat = |f: fn(&IcashStats) -> u64| -> u64 {
        traced
            .counts
            .iter()
            .map(|c| f(&c.stats_end) - f(&c.stats_preload))
            .sum()
    };
    let event = |f: fn(&TraceStats) -> u64| -> u64 {
        traced
            .counts
            .iter()
            .map(|c| f(&c.trace_end) - f(&c.trace_preload))
            .sum()
    };
    let preload_stat = |f: fn(&IcashStats) -> u64| -> u64 {
        traced.counts.iter().map(|c| f(&c.stats_preload)).sum()
    };
    let preload_event = |f: fn(&TraceStats) -> u64| -> u64 {
        traced.counts.iter().map(|c| f(&c.trace_preload)).sum()
    };
    let encodes = event(|t| t.delta_encodes);
    let reads = stat(|s| s.reads);
    let probes = event(|t| t.sig_probes);
    let ref_hits = event(|t| t.ref_cache_hits);
    let ref_misses = event(|t| t.ref_cache_misses);
    let commits = stat(|s| s.group_commits);
    let merged = RunSummary::merge_shards(&traced.summaries);
    let ssd = merged.report.ssd.clone().unwrap_or_default();
    let hdd = merged.report.hdd.clone().unwrap_or_default();
    let gc = merged.report.gc.unwrap_or_default();
    let ms_per_kop = |ns: u64| ratio(ns as f64 / 1e6, ops as f64 / 1e3);
    let host_where = |keep: fn(&Submit) -> bool| {
        secs(
            traced
                .submits
                .iter()
                .filter(|x| keep(x))
                .map(|x| x.host_ns)
                .sum(),
        )
    };
    let (read_p50, reads_timed) = host_us(runs, |x| x.read, 0.5);
    let (write_p50, writes_timed) = host_us(runs, |x| !x.read, 0.5);
    let depth_max = traced
        .counts
        .iter()
        .map(|c| c.trace_end.queue_depth_max)
        .max();
    let mut out = sim_layer(traced);
    out.extend([
        // workloads / driver
        metric(
            "workloads.record_s",
            median_cpu_secs(runs, |r| r.record),
            "s",
            n,
        ),
        metric(
            "driver.self_s",
            median(runs.iter().map(|r| secs(r.driver_self_ns())).collect()),
            "s",
            n,
        ),
        // core preload and build
        metric("core.new_s", median_cpu_secs(runs, |r| r.new), "s", n),
        metric(
            "core.preload_s",
            median_cpu_secs(runs, |r| r.preload),
            "s",
            n,
        ),
        metric(
            "core.preload_encodes",
            preload_event(|t| t.delta_encodes) as f64,
            "count",
            1,
        ),
        metric(
            "core.preload_ref_installs",
            preload_stat(|s| s.ref_installs) as f64,
            "count",
            1,
        ),
        // core submit (host)
        metric("core.read_p50_us", read_p50, "us", reads_timed),
        metric("core.write_p50_us", write_p50, "us", writes_timed),
        metric("core.scan_host_s", host_where(|x| x.scanned), "s", 1),
        metric(
            "core.scans_per_kop",
            per_kop(stat(|s| s.scans)),
            "count/kop",
            1,
        ),
        metric(
            "core.log_flush_host_s",
            host_where(|x| x.log_flushed),
            "s",
            1,
        ),
        metric("core.flush_s", median_cpu_secs(runs, |r| r.flush), "s", n),
        metric("core.report_s", median_cpu_secs(runs, |r| r.report), "s", n),
        // delta: codec, signature, heatmap
        metric("delta.encodes_per_kop", per_kop(encodes), "count/kop", 1),
        metric(
            "delta.encode_kb_per_kop",
            per_kop(event(|t| t.delta_bytes)) / 1024.0,
            "KB/kop",
            1,
        ),
        metric(
            "delta.useful_encode_frac",
            ratio(
                (stat(|s| s.delta_writes) + stat(|s| s.binds)) as f64,
                encodes as f64,
            ),
            "fraction",
            encodes,
        ),
        metric(
            "delta.decodes_per_kop",
            per_kop(event(|t| t.delta_decodes)),
            "count/kop",
            1,
        ),
        metric("delta.sig_probes_per_kop", per_kop(probes), "count/kop", 1),
        metric(
            "delta.sig_bind_frac",
            ratio(event(|t| t.sig_binds) as f64, probes as f64),
            "fraction",
            probes,
        ),
        // core.index_cache
        metric(
            "core.ref_cache_hit_frac",
            ratio(ref_hits as f64, (ref_hits + ref_misses) as f64),
            "fraction",
            ref_hits + ref_misses,
        ),
        metric(
            "core.ref_cache_misses_per_kop",
            per_kop(ref_misses),
            "count/kop",
            1,
        ),
        // core table / RAM buffer
        metric(
            "core.ram_hit_frac",
            ratio(stat(|s| s.ram_hits) as f64, reads as f64),
            "fraction",
            reads,
        ),
        metric(
            "core.delta_hit_frac",
            ratio(stat(|s| s.delta_hits) as f64, reads as f64),
            "fraction",
            reads,
        ),
        metric(
            "core.log_fetches_per_kop",
            per_kop(stat(|s| s.log_fetches)),
            "count/kop",
            1,
        ),
        metric(
            "core.home_reads_per_kop",
            per_kop(stat(|s| s.home_reads)),
            "count/kop",
            1,
        ),
        // core delta_log / staging / maintenance
        metric(
            "core.log_flushes_per_kop",
            per_kop(stat(|s| s.flushes)),
            "count/kop",
            1,
        ),
        metric(
            "core.log_blocks_per_kop",
            per_kop(stat(|s| s.log_blocks_written)),
            "count/kop",
            1,
        ),
        metric("core.log_cleans", stat(|s| s.log_cleans) as f64, "count", 1),
        metric(
            "core.group_commit_entries_per_commit",
            ratio(stat(|s| s.group_commit_entries) as f64, commits as f64),
            "count",
            commits,
        ),
        // storage.ssd
        metric("ssd.reads_per_kop", per_kop(ssd.reads), "count/kop", 1),
        metric("ssd.programs_per_kop", per_kop(ssd.writes), "count/kop", 1),
        metric(
            "ssd.gc_programs_per_kop",
            per_kop(gc.gc_programs),
            "count/kop",
            1,
        ),
        metric("ssd.erases_per_kop", per_kop(ssd.erases), "count/kop", 1),
        metric(
            "ssd.busy_ms_per_kop",
            ms_per_kop(ssd.busy.as_ns()),
            "ms/kop",
            1,
        ),
        metric(
            "ssd.queued_ms_per_kop",
            ms_per_kop(ssd.queued.as_ns()),
            "ms/kop",
            1,
        ),
        // storage.hdd
        metric("hdd.reads_per_kop", per_kop(hdd.reads), "count/kop", 1),
        metric("hdd.writes_per_kop", per_kop(hdd.writes), "count/kop", 1),
        metric(
            "hdd.busy_ms_per_kop",
            ms_per_kop(hdd.busy.as_ns()),
            "ms/kop",
            1,
        ),
        metric(
            "hdd.queued_ms_per_kop",
            ms_per_kop(hdd.queued.as_ns()),
            "ms/kop",
            1,
        ),
        // storage.queue
        metric(
            "queue.reorders_per_kop",
            per_kop(event(|t| t.queue_reorders)),
            "count/kop",
            1,
        ),
        metric(
            "queue.coalesced_per_kop",
            per_kop(event(|t| t.coalesced_commands)),
            "count/kop",
            1,
        ),
        metric("queue.depth_max", depth_max.unwrap_or(0) as f64, "count", 1),
        // storage.cpu
        metric(
            "cpu.storage_util",
            merged.storage_cpu_utilization,
            "fraction",
            1,
        ),
        // trace
        metric(
            "trace.overhead_frac",
            ratio(cpu_secs(traced.replay), median_cpu_secs(runs, |r| r.replay)) - 1.0,
            "fraction",
            n + 1,
        ),
    ]);
    out
}
