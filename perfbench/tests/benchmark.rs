//! Checks of the benchmark itself: measuring must not change the
//! simulation, and the reported metrics must match `BENCHMARK.json`.

use icash_workloads::sysbench;
use perfbench::metrics::{end_to_end, per_layer, simulated};
use perfbench::{measure, quantile, Bench, Inputs};

/// Ops of the short instances: enough for scans, flushes and group commits
/// to run, small enough to keep the test quick.
const SHORT_OPS: u64 = 2_000;

#[test]
fn timed_and_traced_runs_match_a_plain_replay() {
    for bench in Bench::ALL {
        let inputs = Inputs::with_shape(bench, 7, SHORT_OPS, 2);
        let timed = measure(&inputs, false);
        let traced = measure(&inputs, true);
        for j in 0..inputs.parts {
            let plain = inputs.run_plain(j).to_json();
            let part = j as usize;
            assert_eq!(
                timed.summaries[part].to_json(),
                plain,
                "{}: timed",
                bench.name()
            );
            assert_eq!(
                traced.summaries[part].to_json(),
                plain,
                "{}: traced",
                bench.name()
            );
        }
        assert_ne!(timed.summaries[0].to_json(), timed.summaries[1].to_json());
        assert!(timed.same_simulation(&traced), "{}", bench.name());
        assert_eq!(timed.submits.len() as u64, 2 * SHORT_OPS);
    }
}

#[test]
fn another_seed_is_another_simulation() {
    let a = measure(
        &Inputs::with_shape(Bench::SysbenchRead, 1, SHORT_OPS, 1),
        false,
    );
    let b = measure(
        &Inputs::with_shape(Bench::SysbenchRead, 2, SHORT_OPS, 1),
        false,
    );
    assert!(!a.same_simulation(&b));
    assert_ne!(simulated(&a), simulated(&b));
}

#[test]
fn traced_counts_cover_the_replay_only() {
    let inputs = Inputs::with_shape(Bench::PressureHdd, 3, SHORT_OPS, 2);
    let run = measure(&inputs, true);
    assert_eq!(run.counts.len(), 2);
    for counts in &run.counts {
        // Preload serves no host I/O; the stats count blocks, not requests.
        assert_eq!(counts.stats_preload.reads + counts.stats_preload.writes, 0);
        assert!(counts.stats_end.reads + counts.stats_end.writes >= SHORT_OPS);
        assert_eq!(
            counts.trace_end.requests - counts.trace_preload.requests,
            SHORT_OPS
        );
        // The HDD-bound workload queues and group-commits.
        assert!(counts.trace_end.queue_admits > 0);
        assert!(counts.stats_end.group_commits > 0);
    }
    assert!(run.submits.iter().any(|s| s.log_flushed));
    assert!(measure(&inputs, false).counts.is_empty());
}

#[test]
fn pressure_hdd_takes_sysbench_scaled_sizes() {
    let (ops, _) = Bench::PressureHdd.shape();
    let spec = Bench::PressureHdd.spec(ops);
    let sized = sysbench::spec().scaled_to_ops(ops);
    assert_eq!(spec.data_bytes, sized.data_bytes);
    assert_eq!(spec.ssd_bytes, sized.ssd_bytes);
    assert_eq!(spec.ram_bytes, (sized.ram_bytes / 8).max(1 << 20));
    // The content model is still the pressure one.
    assert_eq!(spec.profile.unique_permille, 1000);
    assert!(spec.data_bytes < sysbench::pressure_spec().data_bytes);
}

/// Names listed under `key` in `BENCHMARK.json`, in order.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &json[start..];
    let section = &section[..section.find(']').expect("section ends")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn reported_metrics_are_the_listed_ones() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let inputs = Inputs::with_shape(Bench::SpecsfsWrite, 5, SHORT_OPS, 2);
    let runs = vec![measure(&inputs, false)];
    let traced = measure(&inputs, true);
    let names = |ms: Vec<perfbench::metrics::Metric>| -> Vec<String> {
        assert!(ms.iter().all(|m| m.value.is_finite()));
        ms.iter().map(|m| m.name.to_string()).collect()
    };
    assert_eq!(names(end_to_end(&runs, 1.0)), listed(&json, "end_to_end"));
    assert_eq!(names(per_layer(&runs, &traced)), listed(&json, "per_layer"));
    let workloads = listed(&json, "workloads");
    assert_eq!(workloads, Bench::ALL.map(|b| b.name().to_string()));
}

#[test]
fn quantile_is_nearest_rank() {
    let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(quantile(&mut v, 0.5), 3.0);
    assert_eq!(quantile(&mut v, 0.99), 5.0);
    assert_eq!(quantile(&mut v, 0.2), 1.0);
    assert_eq!(quantile(&mut [], 0.5), 0.0);
}
