//! The `corpus` workload: the batch path, `rsls-run` over the
//! experiment set, one fresh process per pass.
//!
//! A cold pass fills an empty store; warm passes then re-run the same
//! experiments against that store until the run's time is up. Every
//! pass is checked: its rendered tables against the committed digests
//! (and, for warm passes, byte-identical to the cold pass), its journal
//! for failed or degraded units, and after the cold pass every store
//! object against the sha256 its name claims.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::checks;
use crate::procs::{self, fresh_dir, run_timed};
use crate::report::{Report, MIB};
use crate::stats;
use crate::{Options, EXPERIMENTS, JOBS};

/// Empty-store creations before the cold pass and again after it;
/// `setup_s` is the median of all of them.
const SETUP_BATCH: usize = 25;
/// Empty-store creations after each warm pass.
const SETUP_PER_WARM_PASS: usize = 3;
/// Warm passes run at least this many times, however short the run.
const MIN_WARM_PASSES: usize = 5;

/// What the cold pass left behind, for the traced run's layer metrics.
#[derive(Debug)]
pub struct ColdPass {
    /// Wall seconds of the cold `rsls-run` process.
    pub wall_s: f64,
    /// Rendered tables per experiment.
    pub tables: BTreeMap<String, String>,
}

/// Runs the corpus workload and reports its end-to-end metrics.
pub fn run(opts: &Options, report: &mut Report) {
    let work = opts.work.join("corpus");
    // Empty-store creations are spread over the whole run, so that
    // their median does not hang on the host's speed in one moment.
    let mut setups = Vec::new();
    setup_samples(opts, &work, SETUP_BATCH, &mut setups, report);

    let store = work.join("store");
    let Some(cold) = cold_pass(opts, &store, report) else {
        return;
    };
    // Peak RSS of the largest child reaped so far: the cold pass (the
    // set-up processes only open an empty store).
    let rss = procs::children_peak_rss_bytes();
    setup_samples(opts, &work, SETUP_BATCH, &mut setups, report);

    let mut warm = Vec::new();
    let started = Instant::now();
    while warm.len() < MIN_WARM_PASSES || started.elapsed().as_secs_f64() < opts.seconds {
        match pass(opts, &store, report, Some(&cold.tables)) {
            Some(p) => warm.push(p.wall_s),
            None => break,
        }
        setup_samples(opts, &work, SETUP_PER_WARM_PASS, &mut setups, report);
    }
    report.metric_noted(
        "setup_s",
        stats::median(&setups).unwrap_or(f64::NAN),
        "s",
        format!("median of n={} empty-store creations", setups.len()),
    );
    match rss {
        Some(bytes) => report.metric("peak_rss_mb", bytes as f64 / MIB, "MiB"),
        None => report.problem("peak_rss_mb: getrusage failed".into()),
    }
    report.metric("cold_s", cold.wall_s, "s");
    if let Some(m) = stats::median(&warm) {
        report.metric_noted(
            "warm_p50_ms",
            m * 1e3,
            "ms",
            format!("median of n={} passes", warm.len()),
        );
    }
}

/// Times `n` creations of an empty store, each a fresh `rsls-run` that
/// opens the store layout and queries it, and appends the seconds each
/// took to `samples`.
fn setup_samples(
    opts: &Options,
    work: &Path,
    n: usize,
    samples: &mut Vec<f64>,
    report: &mut Report,
) {
    for rep in 0..n {
        let store = work.join(format!("setup-{rep}"));
        if let Err(e) = fresh_dir(&store) {
            report.problem(format!("setup: {e}"));
            continue;
        }
        let cache = store.join("cache");
        let mut cmd = std::process::Command::new(opts.bin_dir.join("rsls-run"));
        cmd.arg("--query")
            .arg("SELECT count(*) FROM runs")
            .arg("--cache-dir")
            .arg(&cache);
        match run_timed(&mut cmd) {
            Ok(t) if t.output.status.success() && cache.join("objects").is_dir() => {
                samples.push(t.wall_s)
            }
            Ok(t) => report.problem(format!(
                "setup: rsls-run exited {}: {}",
                t.output.status,
                t.stderr()
            )),
            Err(e) => report.problem(format!("setup: {e}")),
        }
        let _ = std::fs::remove_dir_all(&store);
    }
}

/// Runs the cold pass into an empty store at `store`.
pub fn cold_pass(opts: &Options, store: &Path, report: &mut Report) -> Option<ColdPass> {
    if let Err(e) = fresh_dir(store) {
        report.problem(format!("cold pass: {e}"));
        return None;
    }
    let cold = pass(opts, store, report, None)?;
    let (objects, problems) = checks::store_objects(&store.join("cache"));
    if objects == 0 {
        report.problem("cold pass left no store objects".into());
    }
    for p in problems {
        report.problem(format!("store: {p}"));
    }
    Some(cold)
}

/// One fresh-process pass over the experiment set. Each experiment is
/// one operation: it fails if the process failed, its tables differ
/// from the committed digest (or, on a warm pass, from the cold pass),
/// or the journal shows a failed or degraded unit.
fn pass(
    opts: &Options,
    store: &Path,
    report: &mut Report,
    cold: Option<&BTreeMap<String, String>>,
) -> Option<ColdPass> {
    let label = if cold.is_some() { "warm" } else { "cold" };
    let timed = match run_timed(&mut procs::rsls_run(
        &opts.bin_dir,
        store,
        EXPERIMENTS,
        JOBS,
    )) {
        Ok(t) => t,
        Err(e) => {
            report.problem(format!("{label} pass: launching rsls-run: {e}"));
            return None;
        }
    };
    let stdout = timed.stdout();
    let tables = checks::rendered_tables(&stdout);
    let failures = checks::journal_failures(&store.join("campaign.journal"));
    for id in EXPERIMENTS {
        let mut problems = Vec::new();
        if !timed.output.status.success() {
            problems.push(format!(
                "{label} {id}: rsls-run exited {}",
                timed.output.status
            ));
        }
        match tables.get(*id) {
            Some(text) => {
                if let Err(e) = opts.digests.check("tables", id, text.as_bytes()) {
                    problems.push(format!("{label} {e}"));
                }
                if let Some(cold) = cold {
                    if cold.get(*id) != Some(text) {
                        problems.push(format!("{label} {id}: tables differ from the cold pass"));
                    }
                }
            }
            None => problems.push(format!("{label} {id}: no tables printed")),
        }
        for f in failures.get(*id).into_iter().flatten() {
            problems.push(format!("{label} {id}: {f}"));
        }
        report.op(problems);
    }
    Some(ColdPass {
        wall_s: timed.wall_s,
        tables,
    })
}
