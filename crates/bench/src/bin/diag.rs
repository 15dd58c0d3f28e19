//! Calibration diagnostics: runs one benchmark across the five systems and
//! dumps every metric the figures use plus hit-ratio internals.
//!
//! Usage: `diag [sysbench|hadoop|tpcc|loadsim|specsfs|rubis]`

use icash_bench::{ExperimentConfig, SystemKind};
use icash_core::Icash;
use icash_core::IcashConfig;
use icash_workloads::content::ContentModel;
use icash_workloads::driver::{run_benchmark, DriverConfig};
use icash_workloads::trace::{Trace, TracePlayer};
use icash_workloads::vm;
use icash_workloads::workload::Workload;
use icash_workloads::{hadoop, loadsim, rubis, specsfs, sysbench, tpcc};

fn main() {
    let which = icash_bench::cli::positional_args()
        .into_iter()
        .next()
        .unwrap_or_else(|| "sysbench".into());
    let base = match which.as_str() {
        "tpcc5" => vm::tpcc_five_vms(0).spec().clone(),
        "rubis5" => vm::rubis_five_vms(0).spec().clone(),
        "sysbench" => sysbench::spec(),
        "hadoop" => hadoop::spec(),
        "tpcc" => tpcc::spec(),
        "loadsim" => loadsim::spec(),
        "specsfs" => specsfs::spec(),
        "rubis" => rubis::spec(),
        other => panic!("unknown workload {other}"),
    };
    let cfg = ExperimentConfig::from_env(&base);
    let spec = base.scaled_to_ops(cfg.ops);
    eprintln!(
        "diag {}: {} ops, {} clients, data {} MB, ssd {} MB, ram {} MB",
        spec.name,
        cfg.ops,
        cfg.clients,
        spec.data_bytes >> 20,
        spec.ssd_bytes >> 20,
        spec.ram_bytes >> 20
    );

    let (trace, universe) = if which == "tpcc5" {
        let mut source = vm::rescale(vm::tpcc_five_vms, cfg.seed, &spec);
        let u = source.address_universe();
        (Trace::record(&mut source, cfg.ops), u)
    } else if which == "rubis5" {
        let mut source = vm::rescale(vm::rubis_five_vms, cfg.seed, &spec);
        let u = source.address_universe();
        (Trace::record(&mut source, cfg.ops), u)
    } else {
        let mut source = icash_workloads::MixedWorkload::new(spec.clone(), cfg.seed);
        let u = source.address_universe();
        (Trace::record(&mut source, cfg.ops), u)
    };

    println!(
        "{:<9} {:>9} {:>9} {:>11} {:>11} {:>7} {:>9} {:>9} {:>8}",
        "system", "tx/s", "ops/s", "read_us", "write_us", "cpu%", "ssd_wr", "hdd_ops", "Wh"
    );
    for kind in SystemKind::ALL {
        let mut system = kind.build(&spec);
        let mut player =
            TracePlayer::new(spec.clone(), trace.clone()).with_universe(universe.clone());
        let mut model = ContentModel::new(cfg.seed, spec.profile.clone());
        let driver = DriverConfig {
            clients: cfg.clients,
            ops: cfg.ops,
            warmup_ops: cfg.ops / 4,
            verify: false,
            guest_cache: false,
            cpu: None,
        };
        let s = run_benchmark(system.as_mut(), &mut player, &mut model, &driver);
        let hdd_ops = s.report.hdd.as_ref().map(|h| h.ops()).unwrap_or(0);
        if std::env::var("ICASH_DIAG_TAILS").is_ok() {
            if let Some(h) = &s.report.hdd {
                eprintln!(
                    "  {} hdd busy={:.1}% r={} w={} | ssd busy={:.1}%",
                    s.system,
                    h.utilization(s.elapsed) * 100.0,
                    h.reads,
                    h.writes,
                    s.report
                        .ssd
                        .as_ref()
                        .map(|d| d.utilization(s.elapsed) * 100.0)
                        .unwrap_or(0.0),
                );
            }
            eprintln!(
                "  {} write p50={} p99={} max={} | read p50={} p99={} max={}",
                s.system,
                s.write_latency.percentile(0.5),
                s.write_latency.percentile(0.99),
                s.write_latency.max(),
                s.read_latency.percentile(0.5),
                s.read_latency.percentile(0.99),
                s.read_latency.max(),
            );
        }
        println!(
            "{:<9} {:>9.1} {:>9.1} {:>11.1} {:>11.1} {:>6.1}% {:>9} {:>9} {:>8.3}",
            s.system,
            s.transactions_per_sec(),
            s.ops_per_sec(),
            s.read_mean_us(),
            s.write_mean_us(),
            s.cpu_utilization * 100.0,
            s.ssd_writes,
            hdd_ops,
            s.energy_wh,
        );
        if kind == SystemKind::Icash {
            // Re-run to extract controller internals (cheap at diag scale).
            let mut icash = Icash::new(
                IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build(),
            );
            let mut player =
                TracePlayer::new(spec.clone(), trace.clone()).with_universe(universe.clone());
            let mut model = ContentModel::new(cfg.seed, spec.profile.clone());
            let _ = run_benchmark(&mut icash, &mut player, &mut model, &driver);
            let st = icash.stats();
            let (r, a, i) = st.role_fractions();
            println!(
                "  icash: roles ref {:.1}% assoc {:.1}% indep {:.1}% | reads: ram {:.1}% delta {:.1}% log {:.1}% home {:.1}% | writes: delta {:.1}% ssd {:.1}% indep {:.1}% | scans {} flushes {} binds {} installs {}",
                r * 100.0,
                a * 100.0,
                i * 100.0,
                st.ram_hits as f64 / st.reads.max(1) as f64 * 100.0,
                st.delta_hits as f64 / st.reads.max(1) as f64 * 100.0,
                st.log_fetches as f64 / st.reads.max(1) as f64 * 100.0,
                st.home_reads as f64 / st.reads.max(1) as f64 * 100.0,
                st.delta_writes as f64 / st.writes.max(1) as f64 * 100.0,
                st.ssd_direct_writes as f64 / st.writes.max(1) as f64 * 100.0,
                st.independent_writes as f64 / st.writes.max(1) as f64 * 100.0,
                st.scans,
                st.flushes,
                st.binds,
                st.ref_installs,
            );
        }
    }
}
