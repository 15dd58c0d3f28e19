//! The shard-scaling campaign: SysBench replayed across a grid of shard
//! counts × per-shard client counts, thread-per-shard.
//!
//! Usage: `run_scale [output.txt]`
//!
//! * stdout (and the optional output file) receive the **deterministic**
//!   campaign document: a schema header plus one JSON line per cell with
//!   the shard-clock finish order and the merged summary. No wall-clock
//!   quantity appears, so the bytes are independent of `ICASH_THREADS`.
//! * stderr gets the human table with the wall-clock replay throughput and
//!   speedup over the one-shard cell — the measurement this campaign
//!   exists for.
//! * `CRITERION_JSON=<path>` additionally writes the wall-clock results in
//!   the format `bench_diff` compares against `BENCH_scale.json`.
//!
//! Environment: `ICASH_OPS` (outer ops, default 6,000),
//! `ICASH_SCALE_SHARDS` / `ICASH_SCALE_CLIENTS` (comma-separated sweep
//! overrides), `ICASH_THREADS` (worker pool), `ICASH_QUEUE_DEPTH` /
//! `ICASH_HDD_SCHED` (device command queues for every cell),
//! `ICASH_SCALE_ASSERT=MINx` (e.g. `4x`) to fail the run unless the
//! 8-vs-1-shard wall speedup reaches the bound — CI enables this only on
//! hosts with at least 8 workers, where the sharded engine must deliver —
//! and `ICASH_QUEUE_ASSERT=1` to fail the run unless queueing delivers
//! higher aggregate *virtual* throughput than queue-off at 16 shards (a
//! deterministic comparison, so CI can gate on it at any worker count).

use icash_bench::scale;
use icash_bench::{cli, harness};
use icash_workloads::sysbench;

fn main() {
    let ops = cli::ops_from_env(6_000);
    let seed = 0x1CA5_4001u64;
    let shard_sweep = scale::sweep_from_env("ICASH_SCALE_SHARDS", &scale::SHARD_SWEEP);
    let client_sweep = scale::sweep_from_env("ICASH_SCALE_CLIENTS", &scale::CLIENT_SWEEP);
    let queue = cli::queue_from_env();
    let spec = sysbench::spec().scaled_to_ops(ops);
    eprintln!(
        "run_scale: SysBench, {} ops, shards {:?} x clients {:?}, {} workers, queue {:?}",
        ops,
        shard_sweep,
        client_sweep,
        harness::worker_count(usize::MAX),
        queue,
    );

    let cells = scale::run_campaign(&spec, ops, seed, &shard_sweep, &client_sweep, queue);

    let doc = scale::document(&spec, ops, seed, &cells);
    print!("{doc}");
    if let Some(path) = cli::positional_args().into_iter().next() {
        match std::fs::write(&path, &doc) {
            Ok(()) => eprintln!("campaign document written to {path}"),
            Err(err) => {
                eprintln!("failed to write {path}: {err}");
                std::process::exit(2);
            }
        }
    }

    eprintln!("\n{}", scale::wall_table(&cells));

    if let Ok(path) = std::env::var("CRITERION_JSON") {
        std::fs::write(&path, scale::criterion_json(&cells)).expect("write CRITERION_JSON");
        eprintln!("bench results written to {path}");
    }

    if let Ok(bound) = std::env::var("ICASH_SCALE_ASSERT") {
        let min: f64 = bound.trim_end_matches('x').parse().unwrap_or_else(|_| {
            panic!("invalid ICASH_SCALE_ASSERT={bound:?}: expected e.g. \"4x\"")
        });
        let clients = *client_sweep.last().expect("sweep is never empty");
        let speedup = scale::wall_speedup(&cells, 8, 1, clients)
            .expect("ICASH_SCALE_ASSERT needs shards 1 and 8 in the sweep");
        eprintln!("run_scale: 8-vs-1-shard wall speedup at {clients} clients: {speedup:.2}x");
        assert!(
            speedup >= min,
            "sharded engine scaled only {speedup:.2}x at 8 shards (required {min}x)"
        );
    }

    if let Ok(v) = std::env::var("ICASH_QUEUE_ASSERT") {
        match v.as_str() {
            "1" => {
                let q = queue.unwrap_or_default();
                let clients = *client_sweep.last().expect("sweep is never empty");
                eprintln!(
                    "run_scale: queue-on vs queue-off at 16 shards ({q:?}, {clients} clients)"
                );
                // The comparison cells run the HDD-pressure SysBench variant
                // under a tight RAM budget: stock SysBench touches the
                // mechanical disk a handful of times per shard (it is an
                // SSD-friendly workload by design), which leaves the device
                // queue nothing to schedule and the comparison a tie.
                let mut pspec = sysbench::pressure_spec().scaled_to_ops(ops);
                pspec.ram_bytes = (pspec.ram_bytes / 64).max(1 << 20);
                pspec.ssd_bytes = (pspec.ssd_bytes / 4).max(1 << 20);
                let on = scale::run_campaign(&pspec, ops, seed, &[16], &[clients], Some(q));
                let off = scale::run_campaign(&pspec, ops, seed, &[16], &[clients], None);
                let on_rate = on[0].merged.ops_per_sec();
                let off_rate = off[0].merged.ops_per_sec();
                eprintln!(
                    "run_scale: aggregate virtual throughput {on_rate:.0} ops/s queued vs {off_rate:.0} ops/s unqueued"
                );
                assert!(
                    on_rate > off_rate,
                    "device queueing must raise aggregate virtual throughput at 16 shards: \
                     {on_rate:.0} ops/s queued vs {off_rate:.0} ops/s unqueued"
                );
            }
            "0" | "" => {}
            other => panic!("invalid ICASH_QUEUE_ASSERT={other:?}: expected \"1\" or \"0\"/unset"),
        }
    }
}
