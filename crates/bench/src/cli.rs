//! Shared command-line and environment handling for the bench binaries.
//!
//! Every binary accepts the same tracing flag and the same environment
//! overrides; this module is the single implementation. All parsing is
//! strict: a typo'd override panics with a clear message instead of
//! silently falling back, because a "full reproduction" run that quietly
//! ran with defaults would invalidate the numbers it claims to reproduce.

use icash_storage::fault::HealthPolicy;
use icash_storage::queue::{QueueConfig, QueuePolicy};
use icash_workloads::scenario::{ArrivalShape, ScenarioKind, ScenarioSpec};
use std::path::PathBuf;

/// Flags that take a value (`--flag <v>` or `--flag=<v>`); they and their
/// values are not positional arguments.
const VALUE_FLAGS: [&str; 2] = ["--trace", "--only"];

/// The value of `flag` (`<flag> <v>` or `<flag>=<v>`) in `args`, if given;
/// a trailing flag with no value yields `""`.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            return Some(iter.next().cloned().unwrap_or_default());
        }
        if let Some(v) = arg.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

/// `args` with every [`VALUE_FLAGS`] flag (and its value) removed.
fn positional(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            iter.next(); // the flag's value
        } else if !VALUE_FLAGS
            .iter()
            .any(|f| arg.starts_with(&format!("{f}=")))
        {
            out.push(arg.clone());
        }
    }
    out
}

fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The `--trace <path>` / `--trace=<path>` command-line flag, falling back
/// to the `ICASH_TRACE` environment variable. `None` means tracing stays
/// off and the run is bit-for-bit the untraced one.
pub fn trace_path_from_args() -> Option<PathBuf> {
    flag_value(&args(), "--trace")
        .filter(|path| !path.is_empty())
        .or_else(|| std::env::var("ICASH_TRACE").ok())
        .map(PathBuf::from)
}

/// The `--only <sel>[,<sel>...]` command-line flag: `run_all`'s exhibit
/// selection (see [`crate::exhibits::select`], which rejects an empty
/// value). `None` selects everything.
pub fn only_from_args() -> Option<String> {
    flag_value(&args(), "--only")
}

/// Command-line arguments with the `--trace` and `--only` flags (and their
/// values) removed, so binaries can keep their positional arguments (output
/// paths, workload names) oblivious to them.
pub fn positional_args() -> Vec<String> {
    positional(&args())
}

/// The `ICASH_OPS` override for binaries that own their op count (the
/// ablations), with `default` when unset.
///
/// # Panics
///
/// Panics when `ICASH_OPS` is set but not a positive integer.
pub fn ops_from_env(default: u64) -> u64 {
    match std::env::var("ICASH_OPS") {
        Err(_) => default,
        Ok(ops) => match ops.parse::<u64>() {
            Ok(0) => panic!("invalid ICASH_OPS=0: the run must issue at least one operation"),
            Ok(n) => n,
            Err(_) => panic!(
                "invalid ICASH_OPS={ops:?}: expected a positive integer number of operations"
            ),
        },
    }
}

/// The `ICASH_GROUP_COMMIT` override: the staged write pipeline's group-
/// commit depth for I-CASH instances built by the harness. Default 1 — the
/// classic synchronous cycle, byte-identical to the pre-pipeline outputs.
///
/// # Panics
///
/// Panics when `ICASH_GROUP_COMMIT` is set but not a positive integer.
pub fn group_commit_depth_from_env() -> u64 {
    match std::env::var("ICASH_GROUP_COMMIT") {
        Err(_) => 1,
        Ok(depth) => match depth.parse::<u64>() {
            Ok(0) => panic!("invalid ICASH_GROUP_COMMIT=0: the depth counts flush triggers per commit, so it must be at least 1"),
            Ok(n) => n,
            Err(_) => panic!(
                "invalid ICASH_GROUP_COMMIT={depth:?}: expected a positive integer batch depth"
            ),
        },
    }
}

/// The `ICASH_SHARDS` override: how many independent controllers the
/// harness stripes the block space across (the `ShardRouter` width).
/// Default 1 — the bare unsharded system, byte-identical to pre-sharding
/// outputs.
///
/// # Panics
///
/// Panics when `ICASH_SHARDS` is set but not a positive integer — a
/// zero-shard engine has nowhere to put a block.
pub fn shards_from_env() -> u32 {
    match std::env::var("ICASH_SHARDS") {
        Err(_) => 1,
        Ok(shards) => match shards.parse::<u32>() {
            Ok(0) => panic!(
                "invalid ICASH_SHARDS=0: the block space is striped across the shards, so there must be at least 1"
            ),
            Ok(n) => n,
            Err(_) => {
                panic!("invalid ICASH_SHARDS={shards:?}: expected a positive integer shard count")
            }
        },
    }
}

/// The `ICASH_FLUSH_TICKET` override: when `1`, benchmark cells exercise
/// the ticket barrier API (`sync`) after the measured run and assert the
/// durability watermark caught the acceptance watermark. Default off, so
/// default outputs stay byte-identical.
///
/// # Panics
///
/// Panics when `ICASH_FLUSH_TICKET` is set to anything but `0` or `1`.
pub fn flush_ticket_from_env() -> bool {
    match std::env::var("ICASH_FLUSH_TICKET") {
        Err(_) => false,
        Ok(v) => match v.as_str() {
            "1" => true,
            "0" | "" => false,
            other => panic!("invalid ICASH_FLUSH_TICKET={other:?}: expected \"1\" or \"0\"/unset"),
        },
    }
}

/// The `ICASH_HEALTH` switch plus its tuning knobs: when `"1"`, harness
/// I-CASH instances run with the device-health machinery (monitors,
/// degraded-mode service, online rebuild, backpressure) using the default
/// [`HealthPolicy`] adjusted by `ICASH_REBUILD_RATE` (slots repopulated per
/// host I/O during rebuild), `ICASH_STAGING_CAP` (staging-buffer blocks
/// before writes bounce with `Busy`), and `ICASH_RETRY_BUDGET` (bounded
/// backoff attempts per mechanical access). Default off — the health-free
/// build, byte-identical to pre-health outputs.
///
/// # Panics
///
/// Panics when `ICASH_HEALTH` is set to anything but `0`/`1`, when a tuning
/// knob is set but malformed or zero, or when a tuning knob is set while
/// `ICASH_HEALTH` is off — a knob that silently did nothing would
/// invalidate the run it claims to describe.
pub fn health_from_env() -> Option<HealthPolicy> {
    let on = match std::env::var("ICASH_HEALTH") {
        Err(_) => false,
        Ok(v) => match v.as_str() {
            "1" => true,
            "0" | "" => false,
            other => panic!("invalid ICASH_HEALTH={other:?}: expected \"1\" or \"0\"/unset"),
        },
    };
    if !on {
        for knob in [
            "ICASH_REBUILD_RATE",
            "ICASH_STAGING_CAP",
            "ICASH_RETRY_BUDGET",
        ] {
            if std::env::var(knob).is_ok() {
                panic!(
                    "{knob} is set but ICASH_HEALTH is not \"1\": the knob would be silently ignored"
                );
            }
        }
        return None;
    }
    let mut policy = HealthPolicy::default();
    if let Ok(v) = std::env::var("ICASH_REBUILD_RATE") {
        policy.rebuild_rate = parse_positive_u32("ICASH_REBUILD_RATE", &v);
    }
    if let Ok(v) = std::env::var("ICASH_STAGING_CAP") {
        match v.parse::<u64>() {
            Ok(0) => panic!(
                "invalid ICASH_STAGING_CAP=0: a zero-block staging buffer would refuse every write; unset the variable for an unbounded buffer"
            ),
            Ok(n) => policy.staging_cap = n,
            Err(_) => panic!(
                "invalid ICASH_STAGING_CAP={v:?}: expected a positive integer block count"
            ),
        }
    }
    if let Ok(v) = std::env::var("ICASH_RETRY_BUDGET") {
        policy.retry_budget = parse_positive_u32("ICASH_RETRY_BUDGET", &v);
    }
    Some(policy)
}

/// The `ICASH_QUEUE_DEPTH` switch plus its scheduling knob: when set to a
/// positive integer, harness I-CASH instances run with device command
/// queues of that depth (HDD NCQ batch scheduling with coalescing, SSD
/// per-channel erase deferral). `ICASH_HDD_SCHED` selects the HDD
/// scheduling policy: `"sptf"` (shortest positioning time first, the
/// default) or `"fifo"`. Unset means no queues — byte-identical to the
/// pre-queue outputs.
///
/// # Panics
///
/// Panics when `ICASH_QUEUE_DEPTH` is set but zero or malformed, when
/// `ICASH_HDD_SCHED` names an unknown policy, or when `ICASH_HDD_SCHED` is
/// set while `ICASH_QUEUE_DEPTH` is unset — a knob that silently did
/// nothing would invalidate the run it claims to describe.
pub fn queue_from_env() -> Option<QueueConfig> {
    let depth = match std::env::var("ICASH_QUEUE_DEPTH") {
        Err(_) => {
            if std::env::var("ICASH_HDD_SCHED").is_ok() {
                panic!(
                    "ICASH_HDD_SCHED is set but ICASH_QUEUE_DEPTH is not set: the knob would be silently ignored"
                );
            }
            return None;
        }
        Ok(v) => match v.parse::<u32>() {
            Ok(0) => panic!(
                "invalid ICASH_QUEUE_DEPTH=0: a zero-slot queue could never admit a command; unset the variable to run without queues"
            ),
            Ok(n) => n,
            Err(_) => panic!(
                "invalid ICASH_QUEUE_DEPTH={v:?}: expected a positive integer queue depth"
            ),
        },
    };
    let sched = match std::env::var("ICASH_HDD_SCHED") {
        Err(_) => QueuePolicy::Sptf,
        Ok(v) => match QueuePolicy::parse(&v) {
            Some(p) => p,
            None => panic!("invalid ICASH_HDD_SCHED={v:?}: expected \"sptf\" or \"fifo\""),
        },
    };
    Some(QueueConfig { depth, sched })
}

/// The `ICASH_SCENARIO` switch plus its `ICASH_ARRIVAL` shape knob: when
/// set, harness cells run the named scenario driver ("replay",
/// "open-loop", or "churn") instead of the plain closed loop, and
/// `ICASH_ARRIVAL` picks the open-loop arrival shape ("stationary",
/// "diurnal", or "burst"; default diurnal). Unset or `"0"` means no
/// scenario — byte-identical to the pre-scenario outputs.
///
/// # Panics
///
/// Panics when `ICASH_SCENARIO` names an unknown scenario, when
/// `ICASH_ARRIVAL` names an unknown shape, or when `ICASH_ARRIVAL` is set
/// while the scenario is off or not open-loop — a knob that silently did
/// nothing would invalidate the run it claims to describe.
pub fn scenario_from_env() -> Option<ScenarioSpec> {
    let kind = match std::env::var("ICASH_SCENARIO") {
        Err(_) => None,
        Ok(v) => match v.as_str() {
            "0" | "" => None,
            s => match ScenarioKind::parse(s) {
                Some(k) => Some(k),
                None => panic!(
                    "invalid ICASH_SCENARIO={s:?}: expected \"replay\", \"open-loop\", or \"churn\""
                ),
            },
        },
    };
    let Some(kind) = kind else {
        if std::env::var("ICASH_ARRIVAL").is_ok() {
            panic!(
                "ICASH_ARRIVAL is set but ICASH_SCENARIO is not: the knob would be silently ignored"
            );
        }
        return None;
    };
    let arrival = match std::env::var("ICASH_ARRIVAL") {
        Err(_) => ArrivalShape::Diurnal,
        Ok(v) => {
            if kind != ScenarioKind::OpenLoop {
                panic!(
                    "ICASH_ARRIVAL is set but ICASH_SCENARIO={:?} is not \"open-loop\": the knob would be silently ignored",
                    kind.name()
                );
            }
            match ArrivalShape::parse(&v) {
                Some(a) => a,
                None => panic!(
                    "invalid ICASH_ARRIVAL={v:?}: expected \"stationary\", \"diurnal\", or \"burst\""
                ),
            }
        }
    };
    Some(ScenarioSpec { kind, arrival })
}

fn parse_positive_u32(name: &str, value: &str) -> u32 {
    match value.parse::<u32>() {
        Ok(0) => panic!("invalid {name}=0: expected a positive integer"),
        Ok(n) => n,
        Err(_) => panic!("invalid {name}={value:?}: expected a positive integer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process state; keep them serialized by testing
    // distinct variables per test.

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn value_flags_are_not_positional() {
        let args = strings(&["out.md", "--only", "fig13", "--trace=t.jsonl", "x"]);
        assert_eq!(positional(&args), strings(&["out.md", "x"]));
        assert_eq!(flag_value(&args, "--only").as_deref(), Some("fig13"));
        assert_eq!(flag_value(&args, "--trace").as_deref(), Some("t.jsonl"));
        let args = strings(&["--only=tab05,tab06", "--trace", "t.jsonl"]);
        assert!(positional(&args).is_empty());
        assert_eq!(flag_value(&args, "--only").as_deref(), Some("tab05,tab06"));
        assert_eq!(flag_value(&args, "--trace").as_deref(), Some("t.jsonl"));
        assert_eq!(flag_value(&strings(&["--onlyx"]), "--only"), None);
        assert_eq!(
            flag_value(&strings(&["--only"]), "--only").as_deref(),
            Some("")
        );
    }

    #[test]
    fn ops_default_and_override() {
        std::env::remove_var("ICASH_OPS");
        assert_eq!(ops_from_env(40_000), 40_000);
    }

    #[test]
    fn group_commit_default_is_synchronous() {
        std::env::remove_var("ICASH_GROUP_COMMIT");
        assert_eq!(group_commit_depth_from_env(), 1);
    }

    #[test]
    fn flush_ticket_default_is_off() {
        std::env::remove_var("ICASH_FLUSH_TICKET");
        assert!(!flush_ticket_from_env());
    }

    #[test]
    fn shards_default_is_unsharded() {
        std::env::remove_var("ICASH_SHARDS");
        assert_eq!(shards_from_env(), 1);
    }

    #[test]
    fn queue_default_is_off() {
        std::env::remove_var("ICASH_QUEUE_DEPTH");
        std::env::remove_var("ICASH_HDD_SCHED");
        assert!(queue_from_env().is_none());
    }

    #[test]
    fn scenario_default_is_off() {
        std::env::remove_var("ICASH_SCENARIO");
        std::env::remove_var("ICASH_ARRIVAL");
        assert!(scenario_from_env().is_none());
    }

    #[test]
    fn health_default_is_off() {
        std::env::remove_var("ICASH_HEALTH");
        std::env::remove_var("ICASH_REBUILD_RATE");
        std::env::remove_var("ICASH_STAGING_CAP");
        std::env::remove_var("ICASH_RETRY_BUDGET");
        assert!(health_from_env().is_none());
    }
}
