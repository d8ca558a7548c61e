//! The traced run's batch-path layers: a traced in-process cold pass
//! (spans around `ExperimentRegistry::run`), the campaign journal and
//! store it leaves, the `RunReport`s in that store, kernel probes on
//! the experiment set's matrices, an attribution of unit time to CG
//! steps with its residual, and warehouse probes on the final store.
//!
//! Every span here is placed by the benchmark around a call into a
//! public function; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use rsls_campaign::{matrix_fingerprint, EngineOptions, Journal, JournalEvent, ResultCache};
use rsls_core::RunReport;
use rsls_experiments::{artifacts, campaign, ExperimentRegistry, Scale};
use rsls_solvers::Cg;
use rsls_sparse::{CsrMatrix, Format, SellMatrix, SpmvOperator};

use crate::corpus;
use crate::procs::fresh_dir;
use crate::report::{Report, MIB};
use crate::stats;
use crate::trace::Tracer;
use crate::{Options, EXPERIMENTS, JOBS, MATRICES};

/// Timed batches per kernel probe; the probe reports their median.
const PROBE_BATCHES: usize = 15;
/// Shortest SpMV batch, so timer resolution stays negligible.
const MIN_BATCH: Duration = Duration::from_millis(2);
/// CG steps per timed batch (each batch starts a fresh solve, well
/// before any matrix of the set converges).
const CG_STEPS: usize = 20;
/// Repetitions of each warehouse probe; the probe reports the median.
const LAB_REPS: usize = 5;

/// One suite matrix of the experiment set, generated afresh.
pub struct Workload {
    /// Metric label (`kuu`, `stencil5`, …).
    pub label: &'static str,
    /// The operator.
    pub a: CsrMatrix,
    /// Its right-hand side.
    pub b: Vec<f64>,
}

/// Generates every matrix of the experiment set (spans around
/// `artifacts::workload_uncached`), returning them with the seconds
/// generation took in total.
pub fn generate_workloads(tracer: &Tracer, parent: u64) -> (Vec<Workload>, f64) {
    let mut total = 0.0;
    let mut out = Vec::new();
    for (name, label) in MATRICES {
        let ((a, b), secs) = tracer.span(
            &format!("artifacts::workload_uncached {name}"),
            parent,
            || artifacts::workload_uncached(name, Scale::Quick),
        );
        total += secs;
        out.push(Workload { label, a, b });
    }
    (out, total)
}

/// Median seconds per call of `f`, over [`PROBE_BATCHES`] batches each
/// at least [`MIN_BATCH`] long.
fn per_call_s(mut f: impl FnMut()) -> f64 {
    let mut inner = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        if start.elapsed() >= MIN_BATCH {
            break;
        }
        inner *= 2;
    }
    let batches: Vec<f64> = (0..PROBE_BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    stats::median(&batches).expect("probe batches are never empty")
}

/// Bytes one SpMV moves at minimum: the stored operator plus one read
/// of `x` and one write of `y`.
fn spmv_bytes(w: &Workload, format: Format) -> u64 {
    let operator = match format {
        Format::Sell => SellMatrix::from_csr(&w.a).storage_bytes(),
        Format::Csr => w.a.storage_bytes(),
    };
    operator + 16 * w.a.nrows() as u64
}

/// Kernel probes on one matrix: SpMV through the selected format
/// (`SpmvOperator::apply`) and one `Cg::step`. Returns seconds per CG
/// step.
fn kernel_probe(w: &Workload, tracer: &Tracer, parent: u64, report: &mut Report) -> f64 {
    let op = SpmvOperator::select(&w.a);
    let x = w.b.clone();
    let mut y = vec![0.0; w.a.nrows()];
    let (spmv_s, _) = tracer.span(&format!("SpmvOperator::apply {}", w.label), parent, || {
        per_call_s(|| {
            op.apply(black_box(&x), &mut y);
            black_box(&y);
        })
    });
    let flops = 2.0 * w.a.nnz() as f64;
    let bytes = spmv_bytes(w, op.format()) as f64;
    report.metric_noted(
        format!("sparse.{}.spmv_us", w.label),
        spmv_s * 1e6,
        "us",
        format!("{} format, nnz={}", op.format().name(), w.a.nnz()),
    );
    report.metric(
        format!("sparse.{}.spmv_gflops", w.label),
        flops / spmv_s / 1e9,
        "GFLOP/s",
    );
    report.metric_noted(
        format!("sparse.{}.flops_per_byte", w.label),
        flops / bytes,
        "flop/B",
        format!("{bytes} bytes moved, computed from array sizes"),
    );
    let (step_s, _) = tracer.span(&format!("Cg::step {}", w.label), parent, || {
        let batches: Vec<f64> = (0..PROBE_BATCHES)
            .map(|_| {
                let mut cg = Cg::from_zero(&w.a, &w.b);
                let start = Instant::now();
                for _ in 0..CG_STEPS {
                    black_box(cg.step());
                }
                start.elapsed().as_secs_f64() / CG_STEPS as f64
            })
            .collect();
        stats::median(&batches).expect("probe batches are never empty")
    });
    report.metric(
        format!("solvers.{}.cg_step_us", w.label),
        step_s * 1e6,
        "us",
    );
    step_s
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The traced run's batch-path half.
pub fn run(opts: &Options, tracer: &Tracer, report: &mut Report) {
    let work = opts.work.join("traced");
    let root = tracer.id();
    let started = Instant::now();

    // The untraced reference: a fresh rsls-run cold pass.
    let Some(untraced) = corpus::cold_pass(opts, &work.join("untraced"), report) else {
        return;
    };

    // The traced cold pass, in process, through the same engine options
    // rsls-run uses.
    let store = work.join("store");
    let cache_dir = store.join("cache");
    let journal_path = store.join("campaign.journal");
    if let Err(e) = fresh_dir(&store) {
        report.problem(format!("traced store: {e}"));
        return;
    }
    if let Err(e) = campaign::configure(EngineOptions {
        jobs: JOBS,
        cache_dir: cache_dir.clone(),
        use_cache: true,
        resume: false,
        journal_path: Some(journal_path.clone()),
        ..EngineOptions::default()
    }) {
        report.problem(format!("configuring the campaign engine: {e}"));
        return;
    }
    let registry = ExperimentRegistry::builtin();
    let cold_span = tracer.id();
    let cold_start = Instant::now();
    let mut walls = BTreeMap::new();
    for id in EXPERIMENTS {
        let (tables, secs) =
            tracer.span(&format!("ExperimentRegistry::run {id}"), cold_span, || {
                std::panic::catch_unwind(|| registry.run(id, Scale::Quick))
            });
        walls.insert(*id, secs);
        let mut problems = Vec::new();
        match tables {
            Ok(Some(tables)) => {
                let text: String = tables.iter().map(|t| format!("{}\n", t.render())).collect();
                if let Err(e) = opts.digests.check("tables", id, text.as_bytes()) {
                    problems.push(format!("traced {e}"));
                }
            }
            Ok(None) => problems.push(format!("traced {id}: not registered")),
            Err(_) => problems.push(format!("traced {id}: a campaign unit failed")),
        }
        report.op(problems);
    }
    let cold_end = Instant::now();
    tracer.record(
        cold_span,
        root,
        0,
        "cold pass (in process)",
        cold_start,
        cold_end,
    );
    let traced_cold_s = cold_end.duration_since(cold_start).as_secs_f64();
    let summary = campaign::engine().summary();

    // Journal: unit busy time per experiment.
    let (events, _) = tracer.span("Journal::read_events", root, || {
        Journal::read_events(&journal_path)
    });
    let done: Vec<(String, String, f64)> = events
        .unwrap_or_default()
        .into_iter()
        .filter_map(|e| match e {
            JournalEvent::Done { hash, unit, wall_s } => Some((hash, unit, wall_s)),
            _ => None,
        })
        .collect();
    let unit_busy_s: f64 = done.iter().map(|d| d.2).sum();

    for id in EXPERIMENTS {
        report.metric(format!("experiments.{id}.wall_s"), walls[id], "s");
        let busy: f64 = done
            .iter()
            .filter(|d| d.1.split('/').next() == Some(*id))
            .map(|d| d.2)
            .sum();
        report.metric(format!("experiments.{id}.unit_busy_s"), busy, "s");
    }

    // Matrices: generation, fingerprints, kernel probes.
    let (workloads, gen_s) = generate_workloads(tracer, root);
    report.metric("experiments.matrix_gen_s", gen_s, "s");
    let mut fingerprint_s = 0.0;
    let mut step_by_fp: BTreeMap<String, f64> = BTreeMap::new();
    let mut fps = Vec::new();
    for w in &workloads {
        let (fp, secs) = tracer.span(
            &format!("campaign::matrix_fingerprint {}", w.label),
            root,
            || {
                matrix_fingerprint(
                    w.a.nrows(),
                    w.a.ncols(),
                    w.a.row_ptr(),
                    w.a.col_idx(),
                    w.a.values(),
                    &w.b,
                )
            },
        );
        fingerprint_s += secs;
        fps.push(format!("{fp:016x}"));
    }
    report.metric("experiments.fingerprint_s", fingerprint_s, "s");
    for (w, fp) in workloads.iter().zip(fps) {
        let step_s = kernel_probe(w, tracer, root, report);
        step_by_fp.insert(fp, step_s);
    }

    // Store: cached lookups, reports, provenance.
    let cache = match ResultCache::open(&cache_dir) {
        Ok(c) => c,
        Err(e) => {
            report.problem(format!("opening the traced store: {e}"));
            return;
        }
    };
    let specs = cache.unit_spec_hashes();
    let mut lookups = Vec::new();
    let mut reports: BTreeMap<String, RunReport> = BTreeMap::new();
    let mut step_of_unit: BTreeMap<String, f64> = BTreeMap::new();
    let mut unattributed = 0;
    for spec in &specs {
        let (loaded, secs) = tracer.span("ResultCache::load", root, || cache.load(spec));
        lookups.push(secs);
        match loaded {
            Some(r) => {
                reports.insert(spec.clone(), r);
            }
            None => report.problem(format!("store: unit {spec} does not load")),
        }
        let fp = cache
            .load_provenance(spec)
            .and_then(|p| p.matrix_fingerprint);
        match fp.and_then(|fp| step_by_fp.get(&fp).copied()) {
            Some(step) => {
                step_of_unit.insert(spec.clone(), step);
            }
            None => unattributed += 1,
        }
    }

    report.metric("campaign.units", summary.total as f64, "count");
    report.metric("campaign.units_executed", summary.executed as f64, "count");
    report.metric("campaign.units_cached", summary.cache_hits as f64, "count");
    report.metric(
        "campaign.units_failed",
        (summary.failed + summary.degraded) as f64,
        "count",
    );
    report.metric("campaign.unit_busy_s", unit_busy_s, "s");
    report.metric_noted(
        "campaign.worker_util",
        unit_busy_s / (JOBS as f64 * traced_cold_s),
        "ratio",
        format!("unit_busy_s / ({JOBS} jobs x {traced_cold_s:.3} s traced cold)"),
    );
    report.metric_noted(
        "campaign.warm_lookup_ms",
        stats::mean(&lookups).unwrap_or(f64::NAN) * 1e3,
        "ms",
        format!("mean of n={} ResultCache::load", lookups.len()),
    );
    let (objects, problems) = crate::checks::store_objects(&cache_dir);
    for p in problems {
        report.problem(format!("traced store: {p}"));
    }
    report.metric("campaign.store_objects", objects as f64, "count");
    report.metric(
        "campaign.store_mb",
        dir_bytes(&cache_dir) as f64 / MIB,
        "MiB",
    );
    report.metric(
        "campaign.journal_kb",
        std::fs::metadata(&journal_path).map_or(0, |m| m.len()) as f64 / 1024.0,
        "KiB",
    );

    // Exact counts from the stored reports.
    let sum = |f: &dyn Fn(&RunReport) -> f64| reports.values().map(f).sum::<f64>();
    report.metric("solvers.iterations", sum(&|r| r.iterations as f64), "count");
    report.metric(
        "core.faults_injected",
        sum(&|r| r.faults_injected as f64),
        "count",
    );
    report.metric(
        "core.construction_fallbacks",
        sum(&|r| r.construction_fallbacks as f64),
        "count",
    );
    report.metric(
        "core.checkpoint_mb",
        sum(&|r| r.checkpoint_bytes_written as f64) / MIB,
        "MiB",
    );
    report.metric("sim.virtual_s", sum(&|r| r.time_s), "s");
    report.metric("sim.energy_kj", sum(&|r| r.energy_j) / 1e3, "kJ");
    report.metric("sim.solve_s", sum(&|r| r.breakdown.solve_s), "s");
    report.metric("sim.checkpoint_s", sum(&|r| r.breakdown.checkpoint_s), "s");
    report.metric("sim.restore_s", sum(&|r| r.breakdown.restore_s), "s");
    report.metric(
        "sim.reconstruct_s",
        sum(&|r| r.breakdown.reconstruct_s),
        "s",
    );
    report.metric("sim.repair_s", sum(&|r| r.breakdown.repair_s), "s");

    // Attribution of executed units' busy time to CG steps.
    let solve_est_s: f64 = done
        .iter()
        .filter_map(|(hash, _, _)| {
            Some(reports.get(hash)?.iterations as f64 * step_of_unit.get(hash)?)
        })
        .sum();
    report.metric_noted(
        "attr.solve_est_s",
        solve_est_s,
        "s",
        format!("iterations x cg_step_us; {unattributed} units on no probed matrix"),
    );
    report.metric_noted(
        "attr.residual_s",
        unit_busy_s - solve_est_s,
        "s",
        "unit_busy_s - solve_est_s, not folded away".into(),
    );
    report.metric(
        "attr.residual_share",
        if unit_busy_s > 0.0 {
            (unit_busy_s - solve_est_s) / unit_busy_s
        } else {
            0.0
        },
        "ratio",
    );
    report.metric_noted(
        "trace.overhead_s",
        traced_cold_s - untraced.wall_s,
        "s",
        format!(
            "traced {traced_cold_s:.3} s - untraced {:.3} s",
            untraced.wall_s
        ),
    );

    lab_probes(&cache_dir, &journal_path, tracer, root, report);
    tracer.record(root, 0, 0, "corpus layers", started, Instant::now());
}

/// Warehouse probes on the final store: load, each mix query's execute,
/// and canonical-JSON serialization of their results.
fn lab_probes(cache_dir: &Path, journal: &Path, tracer: &Tracer, parent: u64, report: &mut Report) {
    let mut load = Vec::new();
    let mut warehouse = None;
    for _ in 0..LAB_REPS {
        let (w, secs) = tracer.span("Warehouse::load", parent, || {
            rsls_lab::Warehouse::load(cache_dir, Some(journal))
        });
        load.push(secs);
        warehouse = w.ok();
    }
    let Some(warehouse) = warehouse else {
        report.problem("lab probe: the warehouse does not load".into());
        return;
    };
    report.metric(
        "lab.load_ms",
        stats::median(&load).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    let mut serialize = vec![0.0; LAB_REPS];
    for path in crate::serve::mix_query_paths() {
        let sql = crate::serve::query_sql(&path);
        let name = if sql.contains("group by experiment") {
            "by_experiment"
        } else if sql.contains("from schemes") {
            "schemes"
        } else {
            "count"
        };
        let mut exec = Vec::new();
        let mut result = None;
        for _ in 0..LAB_REPS {
            let (r, secs) = tracer.span("Warehouse::query", parent, || warehouse.query(&sql));
            exec.push(secs);
            result = r.ok();
        }
        report.metric_noted(
            format!("lab.execute_ms.{name}"),
            stats::median(&exec).unwrap_or(f64::NAN) * 1e3,
            "ms",
            sql.clone(),
        );
        let Some(result) = result else {
            report.problem(format!("lab probe: '{sql}' fails"));
            continue;
        };
        for total in serialize.iter_mut() {
            let (_, secs) = tracer.span("QueryResult::to_canonical_json", parent, || {
                black_box(result.to_canonical_json())
            });
            *total += secs;
        }
    }
    // Serializing all three results, median over the repetitions.
    report.metric(
        "lab.serialize_ms",
        stats::median(&serialize).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
}
