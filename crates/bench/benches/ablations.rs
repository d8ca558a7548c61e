//! Ablation benches for the design choices called out in DESIGN.md §5:
//! construction algorithm, DVFS sensitivity exponent γ, and checkpoint
//! interval around the Young/Daly optimum.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rsls_bench::{rhs, small_regular};
use rsls_core::construction::{li, lsi, ConstructionMethod};
use rsls_core::driver::{run, RunConfig};
use rsls_core::interval::CheckpointInterval;
use rsls_core::{CheckpointStorage, DvfsPolicy, Scheme};
use rsls_faults::{FaultClass, FaultSchedule};
use rsls_power::PowerModelConfig;
use rsls_solvers::{Cg, CgConfig, Ic0, Jacobi};
use rsls_sparse::generators::stencil_2d;
use rsls_sparse::generators::{banded_spd, BandedConfig};
use rsls_sparse::Partition;

const RANKS: usize = 8;

/// Construction-algorithm ablation: LU vs normal-equations vs local CG,
/// across diagonal-block sizes.
fn ablation_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_construction");
    for n in [400usize, 1200, 2400] {
        let a = banded_spd(&BandedConfig::regular(n, 9, 1e-3, 11).with_band_decay(0.3));
        let b = rhs(&a);
        let part = Partition::balanced(n, RANKS);
        let x = vec![0.9; n]; // a mid-solve-like iterate
        g.bench_with_input(BenchmarkId::new("li_lu", n), &n, |bch, _| {
            bch.iter(|| {
                black_box(li(&a, &part, 3, &x, &b, ConstructionMethod::Exact, 1e-6).local_flops)
            });
        });
        g.bench_with_input(BenchmarkId::new("li_cg", n), &n, |bch, _| {
            bch.iter(|| {
                black_box(
                    li(
                        &a,
                        &part,
                        3,
                        &x,
                        &b,
                        ConstructionMethod::local_cg_fixed(1e-6, 2000),
                        1e-6,
                    )
                    .local_flops,
                )
            });
        });
        g.bench_with_input(BenchmarkId::new("lsi_ne", n), &n, |bch, _| {
            bch.iter(|| {
                black_box(lsi(&a, &part, 3, &x, &b, ConstructionMethod::Exact, 1e-6).local_flops)
            });
        });
        g.bench_with_input(BenchmarkId::new("lsi_cgls", n), &n, |bch, _| {
            bch.iter(|| {
                black_box(
                    lsi(
                        &a,
                        &part,
                        3,
                        &x,
                        &b,
                        ConstructionMethod::local_cg_fixed(1e-6, 2000),
                        1e-6,
                    )
                    .local_flops,
                )
            });
        });
    }
    g.finish();
}

/// DVFS-saving sensitivity to the frequency exponent γ (how memory-bound
/// the workload is assumed to be).
fn ablation_gamma(c: &mut Criterion) {
    let (a, b) = small_regular();
    let ff = run(&a, &b, &RunConfig::new(Scheme::FaultFree, RANKS));
    let mut g = c.benchmark_group("ablation_gamma");
    for gamma in [0.0f64, 0.5, 1.0] {
        g.bench_function(format!("gamma_{gamma}"), |bch| {
            bch.iter(|| {
                let mut cfg = RunConfig::new(Scheme::li_local_cg(), RANKS)
                    .with_faults(FaultSchedule::evenly_spaced(
                        3,
                        ff.iterations,
                        RANKS,
                        FaultClass::Snf,
                        5,
                    ))
                    .with_dvfs(DvfsPolicy::ThrottleWaiters);
                cfg.power = PowerModelConfig {
                    time_freq_exponent: gamma,
                    ..PowerModelConfig::default()
                };
                black_box(run(&a, &b, &cfg).energy_j)
            });
        });
    }
    g.finish();
}

/// Checkpoint-interval ablation around the Young optimum (Eq. 10/11).
fn ablation_interval(c: &mut Criterion) {
    let (a, b) = small_regular();
    let ff = run(&a, &b, &RunConfig::new(Scheme::FaultFree, RANKS));
    let mut g = c.benchmark_group("ablation_interval");
    for interval in [10usize, 50, 200] {
        g.bench_function(format!("every_{interval}"), |bch| {
            bch.iter(|| {
                let mut cfg = RunConfig::new(
                    Scheme::Checkpoint {
                        storage: CheckpointStorage::Memory,
                        interval: CheckpointInterval::EveryIterations(interval),
                    },
                    RANKS,
                )
                .with_faults(FaultSchedule::evenly_spaced(
                    3,
                    ff.iterations,
                    RANKS,
                    FaultClass::Snf,
                    5,
                ));
                cfg.run_tag = format!("bench-abl-{interval}");
                black_box(run(&a, &b, &cfg).energy_j)
            });
        });
    }
    g.finish();
}

/// Preconditioner ablation: plain CG vs Jacobi-PCG vs IC(0)-PCG on the
/// suite model matrices, solved to a fixed tolerance. The measured body
/// is the whole solve, so the bench shows the iteration-count lever
/// directly (IC(0) trades two triangular solves per step for far fewer
/// steps); each solver's iteration count prints once per operand so the
/// reduction is visible in the bench log.
fn ablation_preconditioner(c: &mut Criterion) {
    let cfg = CgConfig {
        tolerance: 1e-8,
        max_iterations: 20_000,
    };
    let mut g = c.benchmark_group("ablation_preconditioner");
    let operands: [(&str, rsls_sparse::CsrMatrix); 2] = [
        ("stencil_48", stencil_2d(48, 48)),
        ("regular_1200", small_regular().0),
    ];
    for (name, a) in &operands {
        let b = rhs(a);
        let zero = || vec![0.0; a.nrows()];
        let jacobi_pcg = || Cg::with_preconditioner(a, &b, zero(), Jacobi::new(a));
        let ic0_pcg = || {
            let ic0 = Ic0::factor(a).expect("SPD operand");
            Cg::with_preconditioner(a, &b, zero(), ic0)
        };
        let cg_iters = Cg::from_zero(a, &b).solve(&cfg).0;
        let jacobi_iters = jacobi_pcg().solve(&cfg).0;
        let ic0_iters = ic0_pcg().solve(&cfg).0;
        println!(
            "ablation_preconditioner/{name}: cg {cg_iters} iters, \
             jacobi {jacobi_iters} iters, ic0 {ic0_iters} iters"
        );
        g.bench_with_input(BenchmarkId::new("cg", name), name, |bch, _| {
            bch.iter(|| black_box(Cg::from_zero(a, &b).solve(&cfg).0));
        });
        g.bench_with_input(BenchmarkId::new("jacobi_pcg", name), name, |bch, _| {
            bch.iter(|| black_box(jacobi_pcg().solve(&cfg).0));
        });
        g.bench_with_input(BenchmarkId::new("ic0_pcg", name), name, |bch, _| {
            bch.iter(|| black_box(ic0_pcg().solve(&cfg).0));
        });
    }
    g.finish();
}

/// Extension schemes vs the paper's: TMR and multilevel checkpointing.
fn ablation_extensions(c: &mut Criterion) {
    let (a, b) = small_regular();
    let ff = run(&a, &b, &RunConfig::new(Scheme::FaultFree, RANKS));
    let faults = FaultSchedule::evenly_spaced(3, ff.iterations, RANKS, FaultClass::Snf, 5);
    let mut g = c.benchmark_group("ablation_extensions");
    for (name, scheme) in [
        ("tmr", Scheme::Tmr),
        ("cr_ml", Scheme::cr_multilevel()),
        ("cr_m", Scheme::cr_memory()),
    ] {
        g.bench_function(name, |bch| {
            bch.iter(|| {
                let mut cfg = RunConfig::new(scheme, RANKS).with_faults(faults.clone());
                cfg.mtbf_s = Some(ff.time_s / 3.0);
                cfg.run_tag = format!("bench-ext-{name}");
                black_box(run(&a, &b, &cfg).energy_j)
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_construction, ablation_gamma, ablation_interval,
        ablation_preconditioner, ablation_extensions
}
criterion_main!(benches);
