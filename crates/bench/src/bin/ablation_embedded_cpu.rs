//! Ablation: host CPU vs embedded controller processor (the paper's §6
//! future work: "we are building a hardware prototype using an embedded
//! processor in order to fully realize the performance potential").
//!
//! Runs I-CASH on SysBench with the storage computation priced for three
//! processors: the host Xeon (the paper's software prototype), a strong
//! embedded SoC (4 cores, ~3× slower codec), and a weak controller MCU
//! (2 cores, ~10× slower codec). Since the codec runs off the host, app
//! CPU utilization stays put; the question is how much response time and
//! throughput the slower delta engine costs.

use icash_core::{Icash, IcashConfig};
use icash_metrics::report::table;
use icash_storage::cpu::{CpuCosts, CpuModel};
use icash_workloads::content::ContentModel;
use icash_workloads::driver::{run_benchmark, DriverConfig};
use icash_workloads::sysbench;
use icash_workloads::trace::{Trace, TracePlayer};

fn scaled_costs(factor: u64) -> CpuCosts {
    let base = CpuCosts::default();
    CpuCosts {
        signature: base.signature * factor,
        delta_encode: base.delta_encode * factor,
        delta_decode: base.delta_decode * factor,
        content_hash: base.content_hash * factor,
        memcpy: base.memcpy * factor,
        scan: base.scan * factor,
    }
}

fn main() {
    let ops = icash_bench::cli::ops_from_env(40_000);
    let spec = sysbench::spec().scaled_to_ops(ops);
    let mut source = icash_workloads::MixedWorkload::new(spec.clone(), 1);
    let trace = Trace::record(&mut source, ops);

    let processors: Vec<(&str, CpuModel)> = vec![
        ("host Xeon (paper prototype)", CpuModel::xeon()),
        (
            "embedded SoC (4c, 3x codec)",
            CpuModel::new(scaled_costs(3), 4, 5.0, 8.0),
        ),
        (
            "controller MCU (2c, 10x codec)",
            CpuModel::new(scaled_costs(10), 2, 1.0, 2.0),
        ),
    ];

    let mut rows = Vec::new();
    for (name, cpu) in processors {
        let mut system = Icash::new(
            IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build(),
        );
        let mut player = TracePlayer::new(spec.clone(), trace.clone());
        let mut model = ContentModel::new(1, spec.profile.clone());
        let cfg = DriverConfig::new(ops).clients(spec.clients).cpu(cpu);
        let s = run_benchmark(&mut system, &mut player, &mut model, &cfg);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{:.1}", s.read_mean_us()),
            format!("{:.1}", s.write_mean_us()),
            format!("{:.2}%", s.storage_cpu_utilization * 100.0),
        ]);
    }
    print!(
        "{}",
        table(
            "Ablation: processor running the I-CASH logic (SysBench)",
            &["processor", "tx/s", "read_us", "write_us", "storage_cpu"],
            &rows,
        )
    );
}
