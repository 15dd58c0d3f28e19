//! Renders the per-phase virtual-time breakdown of a trace artifact.
//!
//! Usage: `trace_profile trace.jsonl`
//!
//! The input is the multi-cell JSONL document written by any bench binary's
//! `--trace <path>` flag: each cell opens with a `{"cell":...}` header line
//! followed by that cell's structured events. For every cell this prints
//! the header and a [`TraceProfile`] table — where the simulated time went
//! (SSD vs HDD vs queueing), how many events of each kind fired, and the
//! controller-level counters (signature probes, delta codec activity, log
//! flushes, scrub/repair work).
//!
//! Sharded traces (events carrying a `"shard"` tag, written when a cell
//! runs behind a `ShardRouter`) additionally get one sub-table per shard,
//! which is how a `run_scale` sweep shows *where* scaling saturates: a
//! shard whose request spans dwarf its siblings' is the bottleneck.
//!
//! [`TraceProfile`]: icash_metrics::trace::TraceProfile

use icash_metrics::trace::{parse_jsonl, split_by_shard, TraceProfile};

fn main() {
    let path = match icash_bench::cli::positional_args().into_iter().next() {
        Some(p) => p,
        None => {
            eprintln!("usage: trace_profile <trace.jsonl>");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("cannot read {path}: {err}");
            std::process::exit(2);
        }
    };

    // Split the document into (header, events-text) cells. A document with
    // no headers (a raw single-cell trace) is treated as one unnamed cell.
    let mut cells: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if line.starts_with("{\"cell\":") {
            cells.push((line.to_string(), String::new()));
            continue;
        }
        if cells.is_empty() {
            cells.push(("(unnamed cell)".to_string(), String::new()));
        }
        let body = &mut cells.last_mut().expect("cell open").1;
        body.push_str(line);
        body.push('\n');
    }

    if cells.is_empty() {
        eprintln!("{path}: empty trace");
        std::process::exit(1);
    }
    for (header, body) in &cells {
        let events = match parse_jsonl(body) {
            Ok(evts) => evts,
            Err(err) => {
                eprintln!("{path}: {header}: {err}");
                std::process::exit(1);
            }
        };
        let profile = TraceProfile::from_events(&events);
        println!("{header}");
        println!("{}", profile.render());

        // Sharded cells: break the same events down per shard.
        let shards = match split_by_shard(body) {
            Ok(s) => s,
            Err(err) => {
                eprintln!("{path}: {header}: {err}");
                std::process::exit(1);
            }
        };
        if shards.len() > 1 {
            for (shard, doc) in &shards {
                let events = parse_jsonl(doc).expect("validated by split_by_shard");
                println!("shard {shard}:");
                println!("{}", TraceProfile::from_events(&events).render());
            }
        }
    }
}
