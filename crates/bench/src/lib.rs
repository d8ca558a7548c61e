#![warn(missing_docs)]
//! Shared workloads for the criterion benches and the `rsls-bench`
//! regression gate.
//!
//! The benches regenerate every table and figure of the paper at a
//! smoke scale (criterion needs many repetitions, so each measured body
//! is a scaled-down — but structurally identical — version of the full
//! experiment run by `rsls-run`).
//!
//! The `rsls-bench` binary (see `src/bin/rsls-bench.rs`) measures the
//! hot-path counters — the threads × format SpMV matrix (CSR and
//! SELL-C-σ, serial and chunk-parallel, under 1/2/4-thread pools),
//! kernel speedups, solver allocation counts, artifact-cache hit
//! rates — into a canonical JSON report (`BENCH_PR10.json`), and
//! [`gate`] compares such a report against the committed baseline:
//! deterministic counters must stay within 20% of the baseline,
//! timing-derived counters are additionally capped by conservative
//! machine-portable floors so a slow CI runner cannot flake the job.
//! Parallel cells are never silently skipped — a cell the baseline
//! measured must be present and non-degraded in the current report.

use rsls_sparse::generators::{banded_spd, stencil_2d, BandedConfig};
use rsls_sparse::CsrMatrix;

/// A small regular SPD system exercising the differentiating recovery
/// regime (thin band, delocalized spectrum).
pub fn small_regular() -> (CsrMatrix, Vec<f64>) {
    let a = banded_spd(&BandedConfig::regular(1200, 7, 5e-4, 99).with_band_decay(0.3));
    let b = rhs(&a);
    (a, b)
}

/// A small irregular SPD system (long-range couplings).
pub fn small_irregular() -> (CsrMatrix, Vec<f64>) {
    let a =
        banded_spd(&BandedConfig::irregular(1200, 13, 1e-4, 0.35, 99).with_scaling_decades(1.0));
    let b = rhs(&a);
    (a, b)
}

/// A small 5-point stencil system.
pub fn small_stencil() -> (CsrMatrix, Vec<f64>) {
    let a = stencil_2d(40, 40);
    let b = rhs(&a);
    (a, b)
}

/// Right-hand side with the all-ones solution.
pub fn rhs(a: &CsrMatrix) -> Vec<f64> {
    let ones = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    b
}

/// A large SPD stencil system whose nnz clears the parallel-SpMV
/// threshold — the kernel-bench operand.
pub fn large_stencil() -> (CsrMatrix, Vec<f64>) {
    let a = stencil_2d(320, 320);
    let b = rhs(&a);
    (a, b)
}

/// Best-of-`reps` wall time of `f`, in seconds.
///
/// Minimum (not mean) over repetitions: the minimum is the run least
/// disturbed by the machine, which is the stable statistic for a
/// regression gate.
pub fn time_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        // rsls-lint: allow(wall-clock) -- benchmark timing is the one legitimate wall-clock consumer; results are reported, never fed back into experiment outputs
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One cell of the threads × format SpMV matrix: one kernel (a storage
/// format, serial or parallel) timed under one requested thread budget.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KernelCell {
    /// Storage format the kernel ran on (`"csr"` or `"sell"`).
    pub format: String,
    /// Whether the chunk-parallel kernel was measured (serial otherwise).
    pub parallel: bool,
    /// Worker threads requested from the pool (1 for serial cells).
    pub threads: usize,
    /// Threads the machine could actually supply
    /// (`rayon::effective_num_threads()` inside the pool): when this is
    /// below `threads`, the parallel kernel delegated to the serial one
    /// and the cell measures a degraded configuration.
    pub effective_threads: usize,
    /// Throughput (flops-per-second proxy), in Mflop/s.
    pub mflops: f64,
    /// Time of the serial CSR reference divided by this cell's time.
    pub speedup_vs_serial_csr: f64,
}

impl KernelCell {
    /// Whether the machine supplied fewer threads than requested (the
    /// parallel kernel then serial-delegated, so the cell is measured
    /// but does not exercise real parallelism).
    pub fn degraded(&self) -> bool {
        self.parallel && self.effective_threads < self.threads
    }

    /// Stable gate/display label, e.g. `csr.par4` or `sell.ser1`.
    pub fn label(&self) -> String {
        let kind = if self.parallel { "par" } else { "ser" };
        format!("{}.{kind}{}", self.format, self.threads)
    }
}

/// Kernel-level measurements.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct KernelBench {
    /// Worker threads the ambient pool reported (`RAYON_NUM_THREADS`
    /// pins this to 4 in CI regardless of runner size).
    pub threads: usize,
    /// Threads the machine could actually supply for the parallel
    /// measurements (`min(threads, available cores)`).
    pub effective_threads: usize,
    /// Serial SpMV throughput (flops-per-second proxy), in Mflop/s.
    pub spmv_serial_mflops: f64,
    /// Chunked parallel SpMV throughput, in Mflop/s.
    pub par_spmv_mflops: f64,
    /// `par_spmv_mflops / spmv_serial_mflops`.
    pub par_spmv_speedup: f64,
    /// Fused `axpy_dot` time relative to separate `axpy` + `dot`
    /// (&gt; 1 means the fused kernel is faster).
    pub axpy_dot_speedup: f64,
    /// The threads × format SpMV matrix (v2 reports; empty in v1).
    pub matrix: Vec<KernelCell>,
}

// Hand-written (not derived) so v1 baselines stay loadable: the
// vendored serde's derive errors on any missing field, and v1 reports
// predate `effective_threads` and the cell matrix.
impl serde::Deserialize for KernelBench {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let threads: usize = serde::helpers::field(v, "threads")?;
        Ok(KernelBench {
            threads,
            effective_threads: match v.get("effective_threads") {
                Some(e) => <usize as serde::Deserialize>::from_value(e)?,
                None => threads,
            },
            spmv_serial_mflops: serde::helpers::field(v, "spmv_serial_mflops")?,
            par_spmv_mflops: serde::helpers::field(v, "par_spmv_mflops")?,
            par_spmv_speedup: serde::helpers::field(v, "par_spmv_speedup")?,
            axpy_dot_speedup: serde::helpers::field(v, "axpy_dot_speedup")?,
            matrix: match v.get("matrix") {
                Some(m) => <Vec<KernelCell> as serde::Deserialize>::from_value(m)?,
                None => Vec::new(),
            },
        })
    }
}

impl KernelBench {
    /// The matrix cell for `(format, parallel, threads)`, if measured.
    pub fn cell(&self, format: &str, parallel: bool, threads: usize) -> Option<&KernelCell> {
        self.matrix
            .iter()
            .find(|c| c.format == format && c.parallel == parallel && c.threads == threads)
    }
}

/// Allocation counters over fixed solver workloads (counted by the
/// `rsls-bench` binary's instrumented global allocator — exact, not
/// timed, so gated tightly).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct AllocBench {
    /// Heap allocations across 100 `Cg::step` calls (post-setup).
    pub cg_steps_allocs: u64,
    /// Allocations of one warm-cache `li_with` reconstruction.
    pub li_warm_allocs: u64,
    /// Allocations of one warm-cache `lsi_with` reconstruction.
    pub lsi_warm_allocs: u64,
    /// Allocations across 100 warm Jacobi-preconditioned `Cg::step`
    /// calls on a SELL-selected operator (steady state must be
    /// allocation-free).
    pub jacobi_warm_allocs: u64,
    /// Allocations across 100 warm IC(0)-preconditioned `Cg::step`
    /// calls (factor and workspace preallocated; steady state must be
    /// allocation-free).
    pub ic0_warm_allocs: u64,
}

// Hand-written for the same v1-compatibility reason as [`KernelBench`]:
// the PCG counters default to 0 when a pre-matrix baseline omits them,
// which keeps the zero-alloc requirement intact (the gate then allows
// at most the +2 slack).
impl serde::Deserialize for AllocBench {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let opt = |name: &str| -> Result<u64, serde::DeError> {
            match v.get(name) {
                Some(inner) => <u64 as serde::Deserialize>::from_value(inner),
                None => Ok(0),
            }
        };
        Ok(AllocBench {
            cg_steps_allocs: serde::helpers::field(v, "cg_steps_allocs")?,
            li_warm_allocs: serde::helpers::field(v, "li_warm_allocs")?,
            lsi_warm_allocs: serde::helpers::field(v, "lsi_warm_allocs")?,
            jacobi_warm_allocs: opt("jacobi_warm_allocs")?,
            ic0_warm_allocs: opt("ic0_warm_allocs")?,
        })
    }
}

/// Artifact-cache effectiveness over a deterministic mini-campaign.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheBench {
    /// Sparse artifact-cache hit rate across repeated reconstructions.
    pub artifact_hit_rate: f64,
    /// Workload-interner hit rate across a suite sweep.
    pub workload_hit_rate: f64,
    /// Cold/warm wall-clock ratio of acquiring the suite workloads
    /// (the `rsls-run --all` set), second pass served by the interner.
    pub suite_warm_speedup: f64,
}

/// End-to-end driver measurements.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct E2eBench {
    /// Wall seconds of the faulty multi-scheme pass with cold caches.
    pub campaign_cold_s: f64,
    /// Wall seconds of the identical pass with warm caches.
    pub campaign_warm_s: f64,
    /// `campaign_cold_s / campaign_warm_s`.
    pub campaign_warm_speedup: f64,
}

/// The full `rsls-bench` report (`BENCH_PR10.json`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchReport {
    /// Report schema version.
    pub version: u32,
    /// Kernel measurements.
    pub kernel: KernelBench,
    /// Allocation counters.
    pub alloc: AllocBench,
    /// Cache effectiveness.
    pub cache: CacheBench,
    /// End-to-end measurements.
    pub e2e: E2eBench,
}

/// One gate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// Counter name.
    pub name: String,
    /// Measured value.
    pub current: f64,
    /// Value required to pass (already direction- and floor-adjusted).
    pub required: f64,
    /// Whether the counter passed (or was skipped).
    pub ok: bool,
    /// Why the gate was skipped, when it was.
    pub skipped: Option<&'static str>,
}

/// Regression tolerance: a counter may degrade 20% vs the baseline.
pub const GATE_TOLERANCE: f64 = 0.20;

/// Speedup floor for parallel matrix cells: below this, even a
/// serial-delegating parallel kernel has regressed (it should time
/// within noise of the serial reference).
pub const PAR_CELL_FLOOR: f64 = 0.9;

/// Speedup floor for the serial SELL cell: the format must actually be
/// faster than serial CSR on the suite model matrix, machine-portably.
pub const SELL_SERIAL_FLOOR: f64 = 1.05;

/// Compares `current` against the committed `baseline`.
///
/// Deterministic counters (allocations, hit rates) gate at ±20% of the
/// baseline. Timing-derived speedups gate at `min(0.8 × baseline,
/// floor)` — the floor keeps the requirement machine-portable, the
/// baseline term catches real regressions on comparable machines.
///
/// Parallel-kernel gates are never silently skipped: a current report
/// measured below 4 worker threads **fails** the aggregate
/// `kernel.par_spmv_speedup` gate unless the baseline was also measured
/// below 4 threads, and a threads × format matrix cell that the
/// baseline measured fails when the current report dropped it or
/// degraded it (serial-delegated under a thread budget the baseline
/// machine could actually supply).
pub fn gate(current: &BenchReport, baseline: &BenchReport) -> Vec<GateResult> {
    let slack = 1.0 - GATE_TOLERANCE;
    let mut out = Vec::new();

    // Lower-is-better exact counters: allow 20% growth (never fewer
    // than 2 extra allocations, so a tiny baseline isn't a hair trigger).
    let mut alloc_gate = |name: &'static str, cur: u64, base: u64| {
        let required = (base as f64 * (1.0 + GATE_TOLERANCE)).max(base as f64 + 2.0);
        out.push(GateResult {
            name: name.to_string(),
            current: cur as f64,
            required,
            ok: (cur as f64) <= required,
            skipped: None,
        });
    };
    alloc_gate(
        "alloc.cg_steps_allocs",
        current.alloc.cg_steps_allocs,
        baseline.alloc.cg_steps_allocs,
    );
    alloc_gate(
        "alloc.li_warm_allocs",
        current.alloc.li_warm_allocs,
        baseline.alloc.li_warm_allocs,
    );
    alloc_gate(
        "alloc.lsi_warm_allocs",
        current.alloc.lsi_warm_allocs,
        baseline.alloc.lsi_warm_allocs,
    );
    alloc_gate(
        "alloc.jacobi_warm_allocs",
        current.alloc.jacobi_warm_allocs,
        baseline.alloc.jacobi_warm_allocs,
    );
    alloc_gate(
        "alloc.ic0_warm_allocs",
        current.alloc.ic0_warm_allocs,
        baseline.alloc.ic0_warm_allocs,
    );

    // Higher-is-better counters. `floor` caps the requirement so slow CI
    // hardware cannot flake the gate; `None` gates purely vs baseline.
    fn higher_gate_into(
        out: &mut Vec<GateResult>,
        name: &'static str,
        cur: f64,
        base: f64,
        floor: Option<f64>,
        skip: Option<&'static str>,
    ) {
        let mut required = base * (1.0 - GATE_TOLERANCE);
        if let Some(f) = floor {
            required = required.min(f);
        }
        out.push(GateResult {
            name: name.to_string(),
            current: cur,
            required,
            ok: skip.is_some() || cur >= required,
            skipped: skip,
        });
    }
    higher_gate_into(
        &mut out,
        "cache.artifact_hit_rate",
        current.cache.artifact_hit_rate,
        baseline.cache.artifact_hit_rate,
        None,
        None,
    );
    higher_gate_into(
        &mut out,
        "cache.workload_hit_rate",
        current.cache.workload_hit_rate,
        baseline.cache.workload_hit_rate,
        None,
        None,
    );
    higher_gate_into(
        &mut out,
        "cache.suite_warm_speedup",
        current.cache.suite_warm_speedup,
        baseline.cache.suite_warm_speedup,
        Some(2.0),
        None,
    );
    // Aggregate parallel-SpMV gate. Under 4 worker threads the
    // measurement is not comparable — but that is a FAILURE (a CI
    // misconfiguration, e.g. a dropped RAYON_NUM_THREADS pin) unless the
    // baseline itself was measured under 4 threads.
    let few_threads = current.kernel.threads < 4;
    let baseline_few = baseline.kernel.threads < 4;
    if few_threads && !baseline_few {
        out.push(GateResult {
            name: "kernel.par_spmv_speedup".to_string(),
            current: current.kernel.par_spmv_speedup,
            required: baseline.kernel.par_spmv_speedup * slack,
            ok: false,
            skipped: None,
        });
    } else {
        higher_gate_into(
            &mut out,
            "kernel.par_spmv_speedup",
            current.kernel.par_spmv_speedup,
            baseline.kernel.par_spmv_speedup,
            Some(1.2),
            (few_threads && baseline_few).then_some("baseline also under 4 worker threads"),
        );
    }
    higher_gate_into(
        &mut out,
        "kernel.axpy_dot_speedup",
        current.kernel.axpy_dot_speedup,
        baseline.kernel.axpy_dot_speedup,
        Some(0.95),
        None,
    );
    higher_gate_into(
        &mut out,
        "e2e.campaign_warm_speedup",
        current.e2e.campaign_warm_speedup,
        baseline.e2e.campaign_warm_speedup,
        Some(1.0),
        None,
    );

    // Per-cell gates over the threads × format matrix: every cell the
    // baseline measured must be present, non-degraded (unless the
    // baseline's machine could not supply the threads either), and
    // within tolerance of the baseline speedup. A missing or
    // newly-degraded cell is a hard failure, never a skip.
    for b in &baseline.kernel.matrix {
        let name = format!("kernel.cell[{}]", b.label());
        let floor = match (b.parallel, b.format.as_str()) {
            (true, _) => PAR_CELL_FLOOR,
            (false, "sell") => SELL_SERIAL_FLOOR,
            (false, _) => PAR_CELL_FLOOR,
        };
        let required = (b.speedup_vs_serial_csr * slack).min(floor);
        let Some(c) = current.kernel.cell(&b.format, b.parallel, b.threads) else {
            out.push(GateResult {
                name,
                current: 0.0,
                required,
                ok: false,
                skipped: None,
            });
            continue;
        };
        let newly_degraded = c.degraded() && !b.degraded();
        out.push(GateResult {
            name,
            current: c.speedup_vs_serial_csr,
            required,
            ok: !newly_degraded && c.speedup_vs_serial_csr >= required,
            skipped: None,
        });
    }
    out
}

/// Latency quantiles from one `rsls-load` soak, in microseconds
/// (log-bucket upper bounds, so values are deterministic for a given
/// set of observations).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeLatency {
    /// Median request latency, µs.
    pub p50_us: u64,
    /// 99th-percentile request latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile request latency, µs.
    pub p999_us: u64,
    /// Worst observed request latency, µs.
    pub max_us: u64,
    /// Mean request latency, µs.
    pub mean_us: u64,
}

/// The `rsls-load` soak report (`BENCH_SERVE.json`): one sustained
/// keep-alive campaign against the event-loop server.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeBenchReport {
    /// Report schema version.
    pub version: u32,
    /// Worker threads available to the soak harness.
    pub threads: usize,
    /// Requests completed.
    pub requests: u64,
    /// Persistent connections driven.
    pub connections: usize,
    /// Framing/transport violations observed — gated at exactly zero.
    pub protocol_errors: u64,
    /// Sustained throughput, requests per second.
    pub throughput_rps: f64,
    /// Request-latency quantiles.
    pub latency: ServeLatency,
}

/// Compares a soak report against the committed `BENCH_SERVE.json`.
///
/// `protocol_errors` gates at exactly zero — a torn response or framing
/// violation is a correctness bug, not a performance regression, so it
/// is never skipped and has no tolerance. Throughput gates like the
/// other timing counters (±20% with a machine-portable floor).
/// Latencies are lower-is-better: the requirement is
/// `max(1.2 × baseline, floor)` — the floor keeps a fast baseline from
/// turning scheduler jitter on a loaded CI runner into a failure.
/// Everything timing-derived is skipped below 4 worker threads;
/// `protocol_errors` still gates.
pub fn serve_gate(current: &ServeBenchReport, baseline: &ServeBenchReport) -> Vec<GateResult> {
    let mut out = Vec::new();
    out.push(GateResult {
        name: "serve.protocol_errors".to_string(),
        current: current.protocol_errors as f64,
        required: 0.0,
        ok: current.protocol_errors == 0,
        skipped: None,
    });
    let few_threads = current.threads < 4;
    let skip = few_threads.then_some("fewer than 4 worker threads");
    let throughput_required = (baseline.throughput_rps * (1.0 - GATE_TOLERANCE)).min(200.0);
    out.push(GateResult {
        name: "serve.throughput_rps".to_string(),
        current: current.throughput_rps,
        required: throughput_required,
        ok: skip.is_some() || current.throughput_rps >= throughput_required,
        skipped: skip,
    });
    // Lower-is-better latency gates with absolute floors (µs): below
    // the floor, differences are scheduler noise, not regressions.
    let mut latency_gate = |name: &'static str, cur: u64, base: u64, floor: u64| {
        let required = (base as f64 * (1.0 + GATE_TOLERANCE)).max(floor as f64);
        out.push(GateResult {
            name: name.to_string(),
            current: cur as f64,
            required,
            ok: skip.is_some() || (cur as f64) <= required,
            skipped: skip,
        });
    };
    latency_gate(
        "serve.latency.p50_us",
        current.latency.p50_us,
        baseline.latency.p50_us,
        5_000,
    );
    latency_gate(
        "serve.latency.p99_us",
        current.latency.p99_us,
        baseline.latency.p99_us,
        50_000,
    );
    latency_gate(
        "serve.latency.p999_us",
        current.latency.p999_us,
        baseline.latency.p999_us,
        200_000,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_well_formed() {
        for (a, b) in [small_regular(), small_irregular(), small_stencil()] {
            assert_eq!(a.nrows(), b.len());
            assert!(a.is_symmetric(1e-9));
        }
    }

    #[test]
    fn large_stencil_clears_the_parallel_threshold() {
        let (a, _) = large_stencil();
        assert!(a.nnz() >= rsls_sparse::csr::PAR_SPMV_NNZ_DEFAULT);
    }

    fn cell(format: &str, parallel: bool, threads: usize, speedup: f64) -> KernelCell {
        KernelCell {
            format: format.to_string(),
            parallel,
            threads,
            effective_threads: threads,
            mflops: 2000.0 * speedup,
            speedup_vs_serial_csr: speedup,
        }
    }

    fn report() -> BenchReport {
        BenchReport {
            version: 2,
            kernel: KernelBench {
                threads: 8,
                effective_threads: 8,
                spmv_serial_mflops: 2000.0,
                par_spmv_mflops: 6000.0,
                par_spmv_speedup: 3.0,
                axpy_dot_speedup: 1.1,
                matrix: vec![
                    cell("csr", false, 1, 1.0),
                    cell("sell", false, 1, 1.5),
                    cell("csr", true, 4, 3.0),
                    cell("sell", true, 4, 3.5),
                ],
            },
            alloc: AllocBench {
                cg_steps_allocs: 0,
                li_warm_allocs: 8,
                lsi_warm_allocs: 20,
                jacobi_warm_allocs: 0,
                ic0_warm_allocs: 0,
            },
            cache: CacheBench {
                artifact_hit_rate: 0.9,
                workload_hit_rate: 0.85,
                suite_warm_speedup: 50.0,
            },
            e2e: E2eBench {
                campaign_cold_s: 2.0,
                campaign_warm_s: 1.0,
                campaign_warm_speedup: 2.0,
            },
        }
    }

    #[test]
    fn identical_reports_pass_every_gate() {
        let r = report();
        assert!(gate(&r, &r).iter().all(|g| g.ok), "{:?}", gate(&r, &r));
    }

    #[test]
    fn alloc_regressions_beyond_tolerance_fail() {
        let base = report();
        let mut cur = base.clone();
        cur.alloc.lsi_warm_allocs = 40; // 2x the baseline's 20
        let gates = gate(&cur, &base);
        let g = gates
            .iter()
            .find(|g| g.name == "alloc.lsi_warm_allocs")
            .unwrap();
        assert!(!g.ok);
    }

    #[test]
    fn hit_rate_collapse_fails_and_floors_cap_timing_gates() {
        let base = report();
        let mut cur = base.clone();
        cur.cache.artifact_hit_rate = 0.5; // down from 0.9: > 20% regression
        cur.cache.suite_warm_speedup = 3.0; // way below baseline 50, above floor 2.0
        let gates = gate(&cur, &base);
        assert!(
            !gates
                .iter()
                .find(|g| g.name == "cache.artifact_hit_rate")
                .unwrap()
                .ok
        );
        assert!(
            gates
                .iter()
                .find(|g| g.name == "cache.suite_warm_speedup")
                .unwrap()
                .ok
        );
    }

    #[test]
    fn under_threaded_parallel_gate_fails_unless_baseline_also_skipped() {
        // Baseline measured at 4+ threads, current at 2: that is a CI
        // misconfiguration (lost RAYON_NUM_THREADS pin), not a skip.
        let base = report();
        let mut cur = base.clone();
        cur.kernel.threads = 2;
        cur.kernel.par_spmv_speedup = 0.7;
        let gates = gate(&cur, &base);
        let g = gates
            .iter()
            .find(|g| g.name == "kernel.par_spmv_speedup")
            .unwrap();
        assert!(!g.ok && g.skipped.is_none());

        // Both under 4 threads: the measurements agree in kind, skip.
        let mut small_base = base.clone();
        small_base.kernel.threads = 2;
        let gates = gate(&cur, &small_base);
        let g = gates
            .iter()
            .find(|g| g.name == "kernel.par_spmv_speedup")
            .unwrap();
        assert!(g.ok && g.skipped.is_some());
    }

    #[test]
    fn missing_matrix_cell_fails_when_baseline_measured_it() {
        let base = report();
        let mut cur = base.clone();
        cur.kernel
            .matrix
            .retain(|c| !(c.format == "sell" && c.parallel));
        let gates = gate(&cur, &base);
        let g = gates
            .iter()
            .find(|g| g.name == "kernel.cell[sell.par4]")
            .unwrap();
        assert!(!g.ok && g.skipped.is_none());
    }

    #[test]
    fn newly_degraded_cell_fails_but_matching_degradation_passes() {
        let base = report();
        // Current machine could only supply 1 thread for the 4-thread
        // cell: degraded, while the baseline measured real parallelism.
        let mut cur = base.clone();
        let i = cur
            .kernel
            .matrix
            .iter()
            .position(|c| c.format == "csr" && c.parallel)
            .unwrap();
        cur.kernel.matrix[i].effective_threads = 1;
        cur.kernel.matrix[i].speedup_vs_serial_csr = 1.0;
        let gates = gate(&cur, &base);
        let g = gates
            .iter()
            .find(|g| g.name == "kernel.cell[csr.par4]")
            .unwrap();
        assert!(!g.ok, "degrading a cell the baseline measured must fail");

        // When the baseline cell was degraded too (both measured on a
        // small machine), a near-1.0 serial-delegated ratio passes.
        let mut small_base = base.clone();
        let j = small_base
            .kernel
            .matrix
            .iter()
            .position(|c| c.format == "csr" && c.parallel)
            .unwrap();
        small_base.kernel.matrix[j].effective_threads = 1;
        small_base.kernel.matrix[j].speedup_vs_serial_csr = 1.0;
        let gates = gate(&cur, &small_base);
        let g = gates
            .iter()
            .find(|g| g.name == "kernel.cell[csr.par4]")
            .unwrap();
        assert!(g.ok, "matching degradation gates on the relaxed floor");
    }

    #[test]
    fn sell_serial_cell_gates_against_its_floor() {
        let base = report();
        let mut cur = base.clone();
        let i = cur
            .kernel
            .matrix
            .iter()
            .position(|c| c.format == "sell" && !c.parallel)
            .unwrap();
        cur.kernel.matrix[i].speedup_vs_serial_csr = 0.95; // slower than CSR
        let gates = gate(&cur, &base);
        let g = gates
            .iter()
            .find(|g| g.name == "kernel.cell[sell.ser1]")
            .unwrap();
        assert!(!g.ok, "SELL losing to serial CSR must fail the gate");
        assert!((g.required - SELL_SERIAL_FLOOR).abs() < 1e-12);
    }

    #[test]
    fn v1_reports_without_matrix_or_pcg_counters_still_load() {
        // The committed BENCH_PR5.json predates the threads × format
        // matrix and the PCG alloc counters; it must stay comparable.
        let v1 = r#"{
            "version": 1,
            "kernel": {
                "threads": 1,
                "spmv_serial_mflops": 500.0,
                "par_spmv_mflops": 420.0,
                "par_spmv_speedup": 0.84,
                "axpy_dot_speedup": 1.05
            },
            "alloc": {"cg_steps_allocs": 0, "li_warm_allocs": 8, "lsi_warm_allocs": 20},
            "cache": {"artifact_hit_rate": 0.9, "workload_hit_rate": 0.85, "suite_warm_speedup": 50.0},
            "e2e": {"campaign_cold_s": 2.0, "campaign_warm_s": 1.0, "campaign_warm_speedup": 2.0}
        }"#;
        let base: BenchReport = serde_json::from_str(v1).unwrap();
        assert_eq!(base.kernel.matrix, Vec::new());
        assert_eq!(base.kernel.effective_threads, base.kernel.threads);
        assert_eq!(base.alloc.jacobi_warm_allocs, 0);
        assert_eq!(base.alloc.ic0_warm_allocs, 0);
        // A v2 report gates cleanly against it: the v1 baseline has no
        // matrix cells to demand, and its sub-4-thread parallel
        // measurement licenses a skip on equally small machines only.
        let mut cur = report();
        cur.kernel.threads = 1;
        let gates = gate(&cur, &base);
        assert!(gates.iter().all(|g| g.ok), "{gates:?}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    fn serve_report() -> ServeBenchReport {
        ServeBenchReport {
            version: 1,
            threads: 8,
            requests: 100_000,
            connections: 32,
            protocol_errors: 0,
            throughput_rps: 5_000.0,
            latency: ServeLatency {
                p50_us: 800,
                p99_us: 9_000,
                p999_us: 40_000,
                max_us: 120_000,
                mean_us: 1_500,
            },
        }
    }

    #[test]
    fn identical_serve_reports_pass_every_gate() {
        let r = serve_report();
        let gates = serve_gate(&r, &r);
        assert!(gates.iter().all(|g| g.ok), "{gates:?}");
    }

    #[test]
    fn protocol_errors_fail_hard_even_on_small_machines() {
        let base = serve_report();
        let mut cur = base;
        cur.threads = 2; // timing gates skip...
        cur.protocol_errors = 1; // ...but correctness never does
        let gates = serve_gate(&cur, &base);
        let g = gates
            .iter()
            .find(|g| g.name == "serve.protocol_errors")
            .unwrap();
        assert!(!g.ok && g.skipped.is_none());
        assert!(
            gates
                .iter()
                .filter(|g| g.name != "serve.protocol_errors")
                .all(|g| g.ok && g.skipped.is_some()),
            "timing gates skip under 4 threads"
        );
    }

    #[test]
    fn latency_floors_absorb_fast_baselines_but_catch_regressions() {
        let base = serve_report();
        let mut cur = base;
        // Baseline p50 is 800µs; 4ms is under the 5ms floor → still ok.
        cur.latency.p50_us = 4_000;
        // Baseline p999 is 40ms; 400ms blows past the 200ms floor.
        cur.latency.p999_us = 400_000;
        let gates = serve_gate(&cur, &base);
        assert!(
            gates
                .iter()
                .find(|g| g.name == "serve.latency.p50_us")
                .unwrap()
                .ok
        );
        assert!(
            !gates
                .iter()
                .find(|g| g.name == "serve.latency.p999_us")
                .unwrap()
                .ok
        );
    }

    #[test]
    fn throughput_collapse_fails_the_serve_gate() {
        let base = serve_report();
        let mut cur = base;
        cur.throughput_rps = 100.0; // below both 0.8×baseline and the floor
        let gates = serve_gate(&cur, &base);
        assert!(
            !gates
                .iter()
                .find(|g| g.name == "serve.throughput_rps")
                .unwrap()
                .ok
        );
    }

    #[test]
    fn serve_report_roundtrips_through_json() {
        let r = serve_report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
