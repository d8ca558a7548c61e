//! The `serve` workload: `rsls-serve` on an empty store, driven by one
//! client process with two threads and two connections through three
//! phases.
//!
//! * grow — connection A requests each experiment in turn (each is
//!   computed on first request); connection B sends cheap reads
//!   open-loop meanwhile and, at each write boundary, the mix's SQL
//!   queries, so every boundary query meets a fixed store state.
//! * steady — the seeded default mix, open-loop at a fixed offered
//!   rate on the warm store; latency is timed from each request's due
//!   time.
//! * capacity — the same mix as a closed loop of a fixed request count.
//!
//! Every response is checked (status per class, `ETag` = sha256 of the
//! body, `/query` bodies against the lab library's own evaluation of
//! the same store state, experiment bodies against committed digests),
//! and at the end every store object is fetched back over `/reports`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rsls_load::{Conn, FetchedResponse, MixWeights, RequestClass, RequestPlanner, Rng};

use crate::checks::{self, Digests};
use crate::procs::{self, fresh_dir};
use crate::report::{Report, MIB};
use crate::stats::{self, percentile};
use crate::trace::Tracer;
use crate::{Options, CONNECTIONS, EXPERIMENTS, JOBS};

/// Offered rate of connection B's cheap reads during grow.
const GROW_RPS: f64 = 50.0;
/// Offered rate of the steady phase, across both connections.
const STEADY_RPS: f64 = 100.0;
/// Requests in the capacity phase, across both connections.
const CAPACITY_REQUESTS: usize = 1000;
/// Rounds of the mix's queries connection B sends at each grow write
/// boundary (the store is unchanged between them).
const BOUNDARY_ROUNDS: usize = 3;
/// Server boots before the workload and after each phase; `setup_s` is
/// the median of all of them and the boot of the server under test.
const SETUP_BATCH: usize = 12;
/// Transport attempts per request before it fails.
const CONNECT_ATTEMPTS: usize = 4;
/// Retries of a request the server shed with `503`.
const RETRY_503: usize = 3;
/// Cap on honouring `Retry-After`.
const RETRY_AFTER_CAP: Duration = Duration::from_millis(100);
/// An open-loop generator sleeps until this long before a request is
/// due and spins the rest, so the OS's wake-up lateness (hundreds of
/// microseconds on a virtual machine) is not charged to the server.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(500);
/// Longest wait for a booting server to answer `/healthz`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// The phases, in run order.
pub const PHASES: [&str; 3] = ["grow", "steady", "capacity"];

/// A running `rsls-serve`; dropping it kills and reaps the process.
struct Server {
    child: Child,
    addr: SocketAddr,
    store: PathBuf,
}

impl Server {
    /// Boots a server on an empty store at `store` and waits until it
    /// answers `/healthz`, returning it with the seconds that took.
    fn boot(opts: &Options, store: &Path) -> io::Result<(Server, f64)> {
        fresh_dir(store)?;
        let addr = SocketAddr::from(([127, 0, 0, 1], procs::free_port()?));
        let log = File::create(store.join("rsls-serve.log"))?;
        let start = Instant::now();
        let child = Command::new(opts.bin_dir.join("rsls-serve"))
            .arg("--addr")
            .arg(addr.to_string())
            .arg("--jobs")
            .arg(JOBS.to_string())
            .arg("--cache-dir")
            .arg(store.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let server = Server {
            child,
            addr,
            store: store.to_path_buf(),
        };
        loop {
            let healthy = Conn::connect(addr, None)
                .and_then(|mut c| c.request("/healthz", &[]))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok((server, start.elapsed().as_secs_f64()));
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err(io::Error::other("rsls-serve never answered /healthz"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn cache(&self) -> PathBuf {
        self.store.join("cache")
    }

    fn journal(&self) -> PathBuf {
        self.store.join("campaign.journal")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request as the client saw it.
#[derive(Debug)]
struct Sample {
    class: &'static str,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
    done: Instant,
    problems: Vec<String>,
    /// `(sql, body)` of a `/query` response, checked at phase end.
    query: Option<(String, Vec<u8>)>,
}

impl Sample {
    fn latency_s(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64()
    }

    fn service_s(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64()
    }

    fn late_s(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64()
    }
}

/// One client connection with reconnect and `503` handling.
struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    opens: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            opens: 0,
        }
    }

    /// Connections opened beyond the first (a 4xx closes the connection).
    fn reconnects(&self) -> u64 {
        self.opens.saturating_sub(1)
    }

    /// Sends one GET, reconnecting through closed connections and
    /// retrying through `503`s; a transport failure that survives every
    /// attempt is an error.
    fn get(&mut self, path: &str, headers: &[(String, String)]) -> Result<FetchedResponse, String> {
        let mut shed = 0;
        loop {
            let resp = self.attempt(path, headers)?;
            if resp.status == 503 && shed < RETRY_503 {
                shed += 1;
                let wait = resp.retry_after_s().map_or(RETRY_AFTER_CAP, |s| {
                    Duration::from_secs(s).min(RETRY_AFTER_CAP)
                });
                std::thread::sleep(wait);
                continue;
            }
            if resp.wants_close() || resp.status >= 400 {
                self.conn = None;
            }
            return Ok(resp);
        }
    }

    fn attempt(
        &mut self,
        path: &str,
        headers: &[(String, String)],
    ) -> Result<FetchedResponse, String> {
        let mut last = String::new();
        for _ in 0..CONNECT_ATTEMPTS {
            if self.conn.is_none() {
                match Conn::connect(self.addr, None) {
                    Ok(c) => {
                        self.opens += 1;
                        self.conn = Some(c);
                    }
                    Err(e) => {
                        last = e.to_string();
                        continue;
                    }
                }
            }
            if let Some(conn) = self.conn.as_mut() {
                match conn.request(path, headers) {
                    Ok(resp) => return Ok(resp),
                    Err(e) => {
                        self.conn = None;
                        last = e.to_string();
                    }
                }
            }
        }
        Err(format!("GET {path}: transport error: {last}"))
    }
}

/// The status each request class must answer with.
fn expected_status(class: &str) -> u16 {
    match class {
        "revalidate" => 304,
        "miss-storm" => 404,
        _ => 200,
    }
}

/// Where a connection's request spans go: the phase span and a lane.
#[derive(Clone, Copy)]
struct Lane<'a> {
    tracer: &'a Tracer,
    phase: u64,
    lane: u64,
}

/// Sends `path`, records its span and checks the response for its
/// class. `due` is when the request was due; the returned sample
/// carries any problems.
fn send_request(
    client: &mut Client,
    lane: Lane,
    class: &'static str,
    path: &str,
    headers: &[(String, String)],
    due: Instant,
    digests: &Digests,
) -> (Sample, Option<FetchedResponse>) {
    let sent = Instant::now();
    let result = client.get(path, headers);
    let done = Instant::now();
    let tracer = lane.tracer;
    tracer.record(
        tracer.id(),
        lane.phase,
        lane.lane,
        &format!("GET {path}"),
        sent,
        done,
    );
    let mut sample = Sample {
        class,
        due,
        sent,
        done,
        problems: Vec::new(),
        query: None,
    };
    let resp = match result {
        Ok(resp) => resp,
        Err(e) => {
            sample.problems.push(e);
            return (sample, None);
        }
    };
    sample.problems = check_response(class, path, &resp, digests);
    if class == "query" && resp.status == 200 {
        sample.query = Some((query_sql(path), resp.body.clone()));
    }
    (sample, Some(resp))
}

/// Status, `ETag` and digest checks for one response.
fn check_response(
    class: &str,
    path: &str,
    resp: &FetchedResponse,
    digests: &Digests,
) -> Vec<String> {
    let mut problems = Vec::new();
    let want = expected_status(class);
    if resp.status != want {
        let kind = if resp.status >= 500 && resp.status != 503 {
            "server error"
        } else {
            "unexpected status"
        };
        problems.push(format!("GET {path}: {kind} {} (want {want})", resp.status));
        return problems;
    }
    if resp.status == 200
        && (path.starts_with("/reports/")
            || path.starts_with("/query")
            || path.starts_with("/experiments/"))
    {
        if let Err(e) = checks::etag_matches_body(resp.etag(), &resp.body) {
            problems.push(format!("GET {path}: {e}"));
        }
    }
    if resp.status == 304 {
        let digest = path.strip_prefix("/reports/").unwrap_or_default();
        if resp.etag() != Some(digest) {
            problems.push(format!("GET {path}: 304 without the requested ETag"));
        }
    }
    if let Some(id) = path.strip_prefix("/experiments/") {
        if let Err(e) = digests.check("experiment", id, &resp.body) {
            problems.push(format!("GET {path}: {e}"));
        }
    }
    problems
}

/// The SQL text of a `/query?sql=…` path, decoded as the server does
/// (`+` is a space, `%XX` a byte).
pub fn query_sql(path: &str) -> String {
    let raw = path.split_once("sql=").map_or("", |(_, q)| q);
    let raw = raw.split('&').next().unwrap_or_default();
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => match raw
                .get(i + 1..i + 3)
                .and_then(|h| u8::from_str_radix(h, 16).ok())
            {
                Some(b) => {
                    out.push(b);
                    i += 2;
                }
                None => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The query paths of the default mix, taken from the public planner:
/// a query-only planner drawn until every distinct path has appeared.
pub fn mix_query_paths() -> Vec<String> {
    let weights = MixWeights {
        experiment: 0,
        query: 1,
        revalidate: 0,
        miss_storm: 0,
        health: 0,
    };
    let mut planner = RequestPlanner::new(weights, Vec::new());
    let mut rng = Rng::new(0);
    let mut paths: Vec<String> = Vec::new();
    for _ in 0..1000 {
        let p = planner.next_request(&mut rng).path;
        if !paths.contains(&p) {
            paths.push(p);
        }
    }
    paths.sort();
    paths
}

/// Every sample of one phase plus its connection counters.
#[derive(Debug, Default)]
struct PhaseLog {
    samples: Vec<Sample>,
    reconnects: u64,
    elapsed_s: f64,
    /// `/metrics` counters before and after (traced run only).
    scrape_before: BTreeMap<String, f64>,
    scrape_after: BTreeMap<String, f64>,
}

impl PhaseLog {
    fn latencies(&self, pick: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| pick(s))
            .map(Sample::latency_s)
            .collect()
    }

    fn failed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| !s.problems.is_empty())
            .count()
    }

    fn delta(&self, key: &str) -> f64 {
        self.scrape_after.get(key).copied().unwrap_or(0.0)
            - self.scrape_before.get(key).copied().unwrap_or(0.0)
    }

    /// Mean of a Prometheus histogram over the phase, in milliseconds.
    fn histogram_mean_ms(&self, family: &str) -> f64 {
        let count = self.delta(&format!("{family}_count"));
        if count > 0.0 {
            self.delta(&format!("{family}_sum")) / count * 1e3
        } else {
            0.0
        }
    }
}

/// Checks every `/query` body in `samples` against the lab library's
/// evaluation of the (unchanged) store state.
fn check_queries(samples: &mut [Sample], expected: &Result<BTreeMap<String, String>, String>) {
    for s in samples {
        if let Some((sql, body)) = &s.query {
            let verdict = match expected {
                Ok(exp) => checks::query_body(exp, sql, body),
                Err(e) => Err(format!("evaluating the expected /query bodies: {e}")),
            };
            if let Err(e) = verdict {
                s.problems.push(e);
            }
        }
    }
}

/// Parses `/metrics` text into `name{labels} -> value`.
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Scrapes `/metrics` (traced run only) inside a span.
fn scrape(addr: SocketAddr, tracer: &Tracer, parent: u64) -> BTreeMap<String, f64> {
    if !tracer.enabled() {
        return BTreeMap::new();
    }
    let (out, _) = tracer.span("scrape /metrics", parent, || {
        Client::new(addr)
            .get("/metrics", &[])
            .map(|r| parse_metrics(&String::from_utf8_lossy(&r.body)))
            .unwrap_or_default()
    });
    out
}

/// Runs the serve workload. With a tracer enabled it records spans and
/// per-layer metrics; otherwise it reports the end-to-end metrics.
pub fn run(opts: &Options, tracer: &Tracer, report: &mut Report) {
    let work = opts.work.join("serve");
    // Boots are spread over the whole run, before the workload and after
    // each phase, so that their median does not hang on the host's speed
    // in one moment.
    let mut boots = Vec::new();
    boot_samples(opts, &work, SETUP_BATCH, &mut boots, report);
    let (server, secs) = match Server::boot(opts, &work.join("store")) {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("booting rsls-serve: {e}"));
            return;
        }
    };
    boots.push(secs);

    let queries = mix_query_paths();
    let root = tracer.id();
    let mut logs = Vec::new();
    for phase in PHASES {
        let span = tracer.id();
        let start = Instant::now();
        let before = scrape(server.addr, tracer, span);
        let mut log = match phase {
            "grow" => grow(opts, &server, &queries, tracer, span),
            "steady" => steady(opts, &server, tracer, span),
            _ => capacity(opts, &server, tracer, span),
        };
        if phase != "grow" {
            let expected =
                checks::expected_query_bodies(&server.cache(), &server.journal(), &sqls(&queries));
            check_queries(&mut log.samples, &expected);
        }
        log.scrape_before = before;
        log.scrape_after = scrape(server.addr, tracer, span);
        tracer.record(span, root, 0, phase, start, Instant::now());
        for s in &log.samples {
            report.op(s.problems.clone());
        }
        logs.push(log);
        boot_samples(opts, &work, SETUP_BATCH, &mut boots, report);
    }
    let setup_s = stats::median(&boots).unwrap_or(f64::NAN);
    verify_reports(&server, report);
    let rss = procs::vm_hwm_bytes(server.child.id());
    drop(server);

    if tracer.enabled() {
        layer_metrics(&logs, report);
        return;
    }
    report.metric_noted(
        "setup_s",
        setup_s,
        "s",
        format!("median of n={} boots", boots.len()),
    );
    match rss {
        Some(bytes) => report.metric("peak_rss_mb", bytes as f64 / MIB, "MiB"),
        None => report.problem("peak_rss_mb: no VmHWM for rsls-serve".into()),
    }
    let [grow, steady] = [&logs[0], &logs[1]];
    let writes = grow.latencies(|s| s.class == "compute");
    report.metric_noted(
        "cold_s",
        writes.iter().sum(),
        "s",
        format!("sum of n={} first computations", writes.len()),
    );
    // The tails that go with the median are printed beside it and
    // reported as per-layer rows: their run-to-run spread is wider than
    // any allowed bound.
    let q = steady.latencies(|s| s.class == "query");
    report.percentile_ms("warm_p50_ms", percentile(&q, 0.50));
    note_tail(report, "p95", percentile(&q, 0.95));
    let other = steady.latencies(|s| s.class != "query");
    note_tail(report, "other p50", percentile(&other, 0.50));
    note_tail(report, "other p99", percentile(&other, 0.99));
}

/// Boots `n` servers on empty stores, each stopped once it answers
/// `/healthz`, and appends the seconds each boot took to `samples`.
fn boot_samples(
    opts: &Options,
    work: &Path,
    n: usize,
    samples: &mut Vec<f64>,
    report: &mut Report,
) {
    for rep in 0..n {
        let store = work.join(format!("boot-{rep}"));
        match Server::boot(opts, &store) {
            Ok((server, secs)) => {
                samples.push(secs);
                drop(server);
            }
            Err(e) => report.problem(format!("setup boot: {e}")),
        }
        let _ = std::fs::remove_dir_all(&store);
    }
}

/// Appends a tail percentile to the note of the metric just added.
fn note_tail(report: &mut Report, label: &str, p: Option<stats::Percentile>) {
    if let (Some(p), Some(m)) = (p, report.metrics.last_mut()) {
        m.note.push_str(&format!(
            "; {label} {:.3} ms (beyond={})",
            p.value * 1e3,
            p.beyond
        ));
    }
}

/// Connection B's open-loop cheap reads during grow: neither the
/// boundary queries nor connection A's computations.
fn is_cheap_read(s: &Sample) -> bool {
    s.class != "query" && s.class != "compute"
}

fn sqls(paths: &[String]) -> Vec<String> {
    paths.iter().map(|p| query_sql(p)).collect()
}

/// Sleeps until shortly before `due`, then spins until it.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_BEFORE_DUE {
        std::thread::sleep(due - now - SPIN_BEFORE_DUE);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The mix without queries: grow's cheap reads (queries go only at the
/// write boundaries).
fn cheap_read_weights() -> MixWeights {
    MixWeights {
        query: 0,
        ..MixWeights::default()
    }
}

/// Grow: connection A computes each experiment in turn; connection B
/// reads open-loop meanwhile and queries at each write boundary.
fn grow(
    opts: &Options,
    server: &Server,
    queries: &[String],
    tracer: &Tracer,
    span: u64,
) -> PhaseLog {
    let (boundary_tx, boundary_rx) = mpsc::channel::<usize>();
    let (ack_tx, ack_rx) = mpsc::channel::<()>();
    let barrier = &Barrier::new(CONNECTIONS);
    let start = Instant::now();
    let (mut a_log, b_log) = std::thread::scope(|scope| {
        let a = scope.spawn(move || {
            let mut client = Client::new(server.addr);
            let mut samples = Vec::new();
            barrier.wait();
            for (i, id) in EXPERIMENTS.iter().enumerate() {
                let path = format!("/experiments/{id}");
                let (sample, _) = send_request(
                    &mut client,
                    Lane {
                        tracer,
                        phase: span,
                        lane: 1,
                    },
                    "compute",
                    &path,
                    &[],
                    Instant::now(),
                    &opts.digests,
                );
                samples.push(sample);
                // The boundary: B queries the store this write left,
                // and A waits until it has.
                if boundary_tx.send(i).is_err() || ack_rx.recv().is_err() {
                    break;
                }
            }
            (samples, client.reconnects())
        });
        let b = scope.spawn(move || {
            let mut client = Client::new(server.addr);
            let mut rng = Rng::split(opts.seed, 1);
            let mut computed: Vec<String> = Vec::new();
            let mut etags: Vec<String> = Vec::new();
            let mut planner = RequestPlanner::new(cheap_read_weights(), Vec::new());
            let interval = Duration::from_secs_f64(1.0 / GROW_RPS);
            let mut samples = Vec::new();
            barrier.wait();
            let mut origin = Instant::now();
            let mut k = 0u32;
            loop {
                let due = origin + interval * k;
                let wake = due.checked_sub(SPIN_BEFORE_DUE).unwrap_or(due);
                match boundary_rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                    Ok(i) => {
                        let paused = Instant::now();
                        let mut bodies = Vec::new();
                        for path in queries.iter().cycle().take(queries.len() * BOUNDARY_ROUNDS) {
                            let (sample, _) = send_request(
                                &mut client,
                                Lane {
                                    tracer,
                                    phase: span,
                                    lane: 2,
                                },
                                "query",
                                path,
                                &[],
                                Instant::now(),
                                &opts.digests,
                            );
                            bodies.push(sample);
                        }
                        let expected = checks::expected_query_bodies(
                            &server.cache(),
                            &server.journal(),
                            &sqls(queries),
                        );
                        check_queries(&mut bodies, &expected);
                        samples.append(&mut bodies);
                        computed.push(EXPERIMENTS[i].to_string());
                        planner = RequestPlanner::new(cheap_read_weights(), computed.clone());
                        for tag in &etags {
                            planner.learn_etag(tag);
                        }
                        // The generator's own pause is not the server's
                        // lateness: resume the schedule where it stopped.
                        origin += paused.elapsed();
                        let last = i + 1 == EXPERIMENTS.len();
                        if ack_tx.send(()).is_err() || last {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        wait_until(due);
                        let planned = planner.next_request(&mut rng);
                        let (sample, resp) = send_request(
                            &mut client,
                            Lane {
                                tracer,
                                phase: span,
                                lane: 2,
                            },
                            planned.class.label(),
                            &planned.path,
                            &planned.headers,
                            due,
                            &opts.digests,
                        );
                        if let Some(tag) = resp.as_ref().and_then(FetchedResponse::etag) {
                            if !etags.iter().any(|t| t == tag) {
                                etags.push(tag.to_string());
                            }
                            planner.learn_etag(tag);
                        }
                        samples.push(sample);
                        k += 1;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            (samples, client.reconnects())
        });
        (
            a.join().expect("grow connection A panicked"),
            b.join().expect("grow connection B panicked"),
        )
    });
    a_log.0.extend(b_log.0);
    PhaseLog {
        samples: a_log.0,
        reconnects: a_log.1 + b_log.1,
        elapsed_s: start.elapsed().as_secs_f64(),
        ..PhaseLog::default()
    }
}

/// Steady: the seeded default mix, open-loop at [`STEADY_RPS`] offered
/// across both connections for the run's seconds.
fn steady(opts: &Options, server: &Server, tracer: &Tracer, span: u64) -> PhaseLog {
    let gap = Duration::from_secs_f64(CONNECTIONS as f64 / STEADY_RPS);
    let phase_len = Duration::from_secs_f64(opts.seconds);
    mix_phase(opts, server, tracer, span, 100, |w, k, origin| {
        let due = origin + gap * k + gap.mul_f64(w as f64 / CONNECTIONS as f64);
        (due < origin + phase_len).then_some(due)
    })
}

/// Capacity: the same mix as a closed loop of [`CAPACITY_REQUESTS`].
fn capacity(opts: &Options, server: &Server, tracer: &Tracer, span: u64) -> PhaseLog {
    let per_conn = CAPACITY_REQUESTS / CONNECTIONS;
    mix_phase(opts, server, tracer, span, 200, |_, k, _| {
        ((k as usize) < per_conn).then(Instant::now)
    })
}

/// The planner and RNG of one connection of the default mix over the
/// experiment set: stream `stream` of the run seed.
fn mix_stream(seed: u64, stream: u64) -> (RequestPlanner, Rng) {
    let ids = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    (
        RequestPlanner::new(MixWeights::default(), ids),
        Rng::split(seed, stream),
    )
}

/// Runs the default mix on every connection; `schedule(conn, k, origin)`
/// gives request `k`'s due time, or `None` when the connection is done.
/// Connection `w` draws from RNG stream `stream + w` of the run seed.
fn mix_phase(
    opts: &Options,
    server: &Server,
    tracer: &Tracer,
    span: u64,
    stream: u64,
    schedule: impl Fn(usize, u32, Instant) -> Option<Instant> + Sync,
) -> PhaseLog {
    let barrier = Barrier::new(CONNECTIONS);
    let origin_cell = std::sync::OnceLock::new();
    let per_conn: Vec<(Vec<Sample>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|w| {
                let (barrier, schedule, origin_cell) = (&barrier, &schedule, &origin_cell);
                scope.spawn(move || {
                    let mut client = Client::new(server.addr);
                    let (mut planner, mut rng) = mix_stream(opts.seed, stream + w as u64);
                    let mut samples = Vec::new();
                    barrier.wait();
                    let origin = *origin_cell.get_or_init(Instant::now);
                    let mut k = 0u32;
                    while let Some(due) = schedule(w, k, origin) {
                        wait_until(due);
                        let planned = planner.next_request(&mut rng);
                        let lane = Lane {
                            tracer,
                            phase: span,
                            lane: 1 + w as u64,
                        };
                        let (sample, resp) = send_request(
                            &mut client,
                            lane,
                            planned.class.label(),
                            &planned.path,
                            &planned.headers,
                            due,
                            &opts.digests,
                        );
                        if let Some(tag) = resp.as_ref().and_then(FetchedResponse::etag) {
                            planner.learn_etag(tag);
                        }
                        samples.push(sample);
                        k += 1;
                    }
                    (samples, client.reconnects())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection panicked"))
            .collect()
    });
    let origin = origin_cell.get().copied().unwrap_or_else(Instant::now);
    let mut log = PhaseLog::default();
    for (samples, reconnects) in per_conn {
        log.samples.extend(samples);
        log.reconnects += reconnects;
    }
    let end = log.samples.iter().map(|s| s.done).max().unwrap_or(origin);
    log.elapsed_s = end.duration_since(origin).as_secs_f64();
    log
}

/// Fetches every store object back over `/reports`: each must come
/// back 200 with its own name as `ETag`, hashing to that name, and
/// byte-identical to the file on disk.
fn verify_reports(server: &Server, report: &mut Report) {
    let (_, problems) = checks::store_objects(&server.cache());
    for p in problems {
        report.problem(format!("serve store: {p}"));
    }
    let objects = rsls_campaign::ResultCache::open(server.cache())
        .map(|c| c.object_hashes())
        .unwrap_or_default();
    if objects.is_empty() {
        report.problem("serve store holds no objects".into());
    }
    let mut client = Client::new(server.addr);
    for hash in objects {
        let path = format!("/reports/{hash}");
        let mut problems = Vec::new();
        match client.get(&path, &[]) {
            Ok(resp) if resp.status == 200 => {
                if let Err(e) = checks::etag_matches_body(resp.etag(), &resp.body) {
                    problems.push(format!("GET {path}: {e}"));
                }
                if resp.etag() != Some(hash.as_str()) {
                    problems.push(format!("GET {path}: ETag is not the object name"));
                }
                let on_disk =
                    std::fs::read(server.cache().join("objects").join(format!("{hash}.json")));
                if on_disk.ok().as_deref() != Some(resp.body.as_slice()) {
                    problems.push(format!("GET {path}: body differs from the stored object"));
                }
            }
            Ok(resp) => problems.push(format!("GET {path}: status {}", resp.status)),
            Err(e) => problems.push(e),
        }
        report.op(problems);
    }
}

/// Per-layer metrics of the serve path: client-side counts and exact
/// per-class percentiles, server-side means from `/metrics` deltas, and
/// warehouse ingest per query.
fn layer_metrics(logs: &[PhaseLog], report: &mut Report) {
    for (phase, log) in PHASES.iter().zip(logs) {
        report.metric(
            format!("serve.{phase}.requests"),
            log.samples.len() as f64,
            "count",
        );
        report.metric(
            format!("serve.{phase}.failed"),
            log.failed() as f64,
            "count",
        );
        report.metric(
            format!("serve.{phase}.reconnects"),
            log.reconnects as f64,
            "count",
        );
        report.metric(
            format!("serve.{phase}.server_mean_ms"),
            log.histogram_mean_ms("rsls_serve_request_duration_seconds"),
            "ms",
        );
    }
    let steady = &logs[1];
    for class in [
        RequestClass::Experiment,
        RequestClass::Query,
        RequestClass::Revalidate,
        RequestClass::MissStorm,
        RequestClass::Health,
    ] {
        let label = class.label();
        let lat = steady.latencies(|s| s.class == label);
        report.percentile_ms(
            format!("serve.steady.{label}.p50_ms"),
            percentile(&lat, 0.50),
        );
        let (tail, q) = if class == RequestClass::Query {
            ("p95", 0.95)
        } else {
            ("p99", 0.99)
        };
        report.percentile_ms(
            format!("serve.steady.{label}.{tail}_ms"),
            percentile(&lat, q),
        );
    }
    report.percentile_ms(
        "serve.steady.other.p50_ms",
        percentile(&steady.latencies(|s| s.class != "query"), 0.50),
    );
    report.percentile_ms(
        "serve.steady.other.p99_ms",
        percentile(&steady.latencies(|s| s.class != "query"), 0.99),
    );
    let client_mean = stats::mean(
        &steady
            .samples
            .iter()
            .map(Sample::service_s)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    report.metric_noted(
        "serve.steady.transport_ms",
        client_mean * 1e3 - steady.histogram_mean_ms("rsls_serve_request_duration_seconds"),
        "ms",
        "client service mean minus server mean".into(),
    );
    let grow = &logs[0];
    let writes = grow.latencies(|s| s.class == "compute");
    report.metric_noted(
        "serve.grow.write_s",
        writes.iter().sum(),
        "s",
        format!("sum of n={} first computations", writes.len()),
    );
    let boundary = grow.latencies(|s| s.class == "query");
    report.metric_noted(
        "serve.grow.query.mean_ms",
        stats::mean(&boundary).unwrap_or(f64::NAN) * 1e3,
        "ms",
        format!("mean of n={} write-boundary queries", boundary.len()),
    );
    let cheap = grow.latencies(is_cheap_read);
    report.percentile_ms("serve.grow.other.p50_ms", percentile(&cheap, 0.50));
    report.percentile_ms("serve.grow.other.p99_ms", percentile(&cheap, 0.99));
    let capacity = &logs[2];
    report.metric_noted(
        "serve.capacity.rps",
        capacity.samples.len() as f64 / capacity.elapsed_s,
        "1/s",
        format!(
            "n={} over {:.2}s",
            capacity.samples.len(),
            capacity.elapsed_s
        ),
    );
    report.metric(
        "serve.grow.computations",
        grow.delta("rsls_serve_computations_total"),
        "count",
    );
    report.metric(
        "serve.grow.result_cache_hits",
        grow.delta("rsls_serve_result_cache_hits_total"),
        "count",
    );
    for (phase, log) in PHASES.iter().zip(logs) {
        let queries = log.delta("rsls_lab_queries_total");
        let ingested = log.delta("rsls_lab_ingested_objects_total");
        report.metric(format!("lab.{phase}.queries"), queries, "count");
        report.metric(format!("lab.{phase}.ingested_objects"), ingested, "count");
        report.metric(
            format!("lab.{phase}.ingest_per_query"),
            if queries > 0.0 {
                ingested / queries
            } else {
                0.0
            },
            "count",
        );
        report.metric(
            format!("lab.{phase}.server_query_ms"),
            log.histogram_mean_ms("rsls_lab_query_seconds"),
            "ms",
        );
    }
    // Lateness of the open-loop generators: grow's cheap reads and
    // every steady request.
    let grow_late: Vec<f64> = grow
        .samples
        .iter()
        .filter(|s| is_cheap_read(s))
        .map(Sample::late_s)
        .collect();
    report.percentile_ms("load.grow.late_p99_ms", percentile(&grow_late, 0.99));
    let steady_late: Vec<f64> = steady.samples.iter().map(Sample::late_s).collect();
    report.percentile_ms("load.steady.late_p99_ms", percentile(&steady_late, 0.99));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// sha256 over the first `n` planned request paths of one stream.
    fn stream_hash(seed: u64, stream: u64, n: usize) -> String {
        let (mut planner, mut rng) = mix_stream(seed, stream);
        let mut paths = String::new();
        for _ in 0..n {
            let req = planner.next_request(&mut rng);
            paths.push_str(&req.path);
            paths.push('\n');
        }
        rsls_core::sha256_hex(paths.as_bytes())
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(stream_hash(7, 100, 500), stream_hash(7, 100, 500));
        assert_ne!(stream_hash(7, 100, 500), stream_hash(8, 100, 500));
        assert_ne!(stream_hash(7, 100, 500), stream_hash(7, 101, 500));
    }

    #[test]
    fn mix_queries_are_the_three_decoded_sql_statements() {
        let sqls: Vec<String> = mix_query_paths().iter().map(|p| query_sql(p)).collect();
        assert_eq!(
            sqls,
            [
                "select count(*) from runs",
                "select experiment, count(*) from runs group by experiment order by experiment",
                "select scheme, runs, avg_energy from schemes order by scheme limit 20",
            ]
        );
        assert_eq!(query_sql("/query?sql=a%2Cb+c&x=1"), "a,b c");
        assert_eq!(query_sql("/query?sql=50%+off"), "50% off");
    }

    #[test]
    fn metrics_text_parses_scalars_and_histogram_sums() {
        let text = "# HELP x y\n# TYPE x counter\nrsls_lab_queries_total 12\n\
                    rsls_lab_query_seconds_sum 0.5\nfam{shard=\"0\"} 3\n";
        let m = parse_metrics(text);
        assert_eq!(m["rsls_lab_queries_total"], 12.0);
        assert_eq!(m["rsls_lab_query_seconds_sum"], 0.5);
        assert_eq!(m["fam{shard=\"0\"}"], 3.0);
    }
}
