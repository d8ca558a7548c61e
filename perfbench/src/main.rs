//! The repository's benchmark harness. `perfbench/run.py` builds the
//! shipped binaries and this harness, then runs:
//!
//! ```text
//! perfbench --workload <corpus|serve> --seed <n> --seconds <s> --trace <0|1>
//!           --work <dir> --bin-dir <dir> --digests <file> --commit <id>
//! ```
//!
//! An untraced run measures one workload and prints the end-to-end
//! metrics, which every workload reports under the same names; a
//! traced run (`--trace 1`) measures every layer of both
//! paths, prints the per-layer metrics and writes its spans. The last
//! line of standard output is the result: `correct`, `attempted`,
//! `failed` and the metrics with their units.

mod checks;
mod context;
mod corpus;
mod layers;
mod procs;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

use checks::Digests;
use context::Context;
use report::Report;
use trace::Tracer;

/// The experiment set S: both unit-submission patterns (one at a time
/// in fig4/fig6/fig7a, batched in fig5x/table4), the most irregular and
/// the most regular matrix, checkpoint I/O, DVFS power profiles and
/// residual histories.
pub const EXPERIMENTS: &[&str] = &["fig4", "fig5x", "fig6", "fig7a", "table4"];

/// The suite matrices S runs on, with their metric labels.
pub const MATRICES: [(&str, &str); 6] = [
    ("Kuu", "kuu"),
    ("crystm02", "crystm02"),
    ("wathen100", "wathen100"),
    ("cvxbqp1", "cvxbqp1"),
    ("5-point stencil", "stencil5"),
    ("nd24k", "nd24k"),
];

/// `--jobs` for `rsls-run` and `rsls-serve`.
pub const JOBS: usize = 2;
/// Client threads and connections of the serve workload (one each).
pub const CONNECTIONS: usize = 2;

/// Parsed command line.
#[derive(Debug)]
pub struct Options {
    /// `corpus` or `serve`.
    pub workload: String,
    /// Seed of the serve request streams.
    pub seed: u64,
    /// Length of the measured steady stretch of a run.
    pub seconds: f64,
    /// Traced run: per-layer metrics and spans.
    pub trace: bool,
    /// Scratch directory for stores, logs and spans.
    pub work: PathBuf,
    /// Directory holding `rsls-run` and `rsls-serve`.
    pub bin_dir: PathBuf,
    /// Committed output digests.
    pub digests: Digests,
    /// Commit or source digest of the code under test.
    pub commit: String,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <corpus|serve> --seed <n> --seconds <s> --trace <0|1> \
         --work <dir> --bin-dir <dir> --digests <file> --commit <id>"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> String {
        let at = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        args.get(at + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let workload = get("--workload");
    if workload != "corpus" && workload != "serve" {
        usage(&format!("unknown workload '{workload}'"));
    }
    let seed = get("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
    let seconds: f64 = get("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds takes a number"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let trace = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let digest_path = PathBuf::from(get("--digests"));
    let text = std::fs::read_to_string(&digest_path)
        .unwrap_or_else(|e| usage(&format!("reading {}: {e}", digest_path.display())));
    let digests = Digests::parse(&text).unwrap_or_else(|e| usage(&e));
    Options {
        workload,
        seed,
        seconds,
        trace,
        work: PathBuf::from(get("--work")),
        bin_dir: PathBuf::from(get("--bin-dir")),
        digests,
        commit: get("--commit"),
    }
}

fn main() {
    let opts = parse_args();
    for bin in ["rsls-run", "rsls-serve"] {
        if !opts.bin_dir.join(bin).is_file() {
            usage(&format!(
                "{} is not built",
                opts.bin_dir.join(bin).display()
            ));
        }
    }
    if let Err(e) = procs::fresh_dir(&opts.work) {
        usage(&format!("work directory {}: {e}", opts.work.display()));
    }

    let tracer = Tracer::new(opts.trace);
    let (workloads, _) = layers::generate_workloads(&Tracer::new(false), 0);
    let largest = workloads
        .iter()
        .map(|w| (w.label.to_string(), w.a.storage_bytes()))
        .max_by_key(|m| m.1)
        .unwrap_or_default();
    drop(workloads);
    let ctx = Context::probe(CONNECTIONS, CONNECTIONS, JOBS, &opts.commit, largest);
    println!("context {}", ctx.to_json());
    if CONNECTIONS > ctx.nproc {
        usage(&format!(
            "{CONNECTIONS} client threads need at least {CONNECTIONS} CPUs; nproc is {}",
            ctx.nproc
        ));
    }

    let mut report = Report::default();
    if opts.trace {
        layers::run(&opts, &tracer, &mut report);
        serve::run(&opts, &tracer, &mut report);
    } else if opts.workload == "corpus" {
        corpus::run(&opts, &mut report);
    } else {
        serve::run(&opts, &tracer, &mut report);
    }
    if report.attempted == 0 {
        report.problem("no operation was attempted".into());
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            report.problems.push(format!("{}: not measured", m.name));
        }
    }

    if opts.trace {
        // Beside the work directory, which the next run empties.
        let dir = opts.work.parent().unwrap_or(&opts.work);
        let path = dir.join(format!("spans-{}-{}.json", opts.workload, opts.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans: {} written to {}", tracer.len(), path.display()),
            Err(e) => report.problem(format!("writing spans to {}: {e}", path.display())),
        }
    }
    for p in report.problems.iter().take(50) {
        eprintln!("FAILED: {p}");
    }
    if report.problems.len() > 50 {
        eprintln!("FAILED: … {} more", report.problems.len() - 50);
    }
    println!(
        "{} seed {} ({}): {} operations, {} failed",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed
    );
    print!("{}", report.table());
    println!("{}", report.result_line());
}
