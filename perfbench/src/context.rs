//! The machine context every result is labelled with.

use std::fmt::Write as _;

use crate::trace::json_string;

/// CPUs, thread counts, build identity and cache size behind a result.
#[derive(Debug, Clone)]
pub struct Context {
    /// CPUs this process may run on (affinity mask).
    pub nproc: usize,
    /// CPUs the process can actually use: the affinity mask further
    /// limited by any cgroup CPU quota.
    pub effective_cpus: usize,
    /// Client threads the serve workload runs.
    pub client_threads: usize,
    /// Client connections the serve workload opens.
    pub client_connections: usize,
    /// `--jobs` given to `rsls-serve` and `rsls-run`.
    pub jobs: usize,
    /// `RAYON_NUM_THREADS` as inherited by every process, if set.
    pub rayon_threads: Option<String>,
    /// Commit (or source digest) of the code under test.
    pub commit: String,
    /// L3 cache size in bytes, if the platform reports it.
    pub l3_bytes: Option<u64>,
    /// Largest matrix of the experiment set, and its CSR bytes.
    pub largest_matrix: (String, u64),
}

impl Context {
    /// Reads the machine side of the context; the caller fills in the
    /// workload's own figures.
    pub fn probe(
        client_threads: usize,
        client_connections: usize,
        jobs: usize,
        commit: &str,
        largest_matrix: (String, u64),
    ) -> Context {
        Context {
            nproc: affinity_cpus().unwrap_or(1),
            effective_cpus: std::thread::available_parallelism().map_or(1, usize::from),
            client_threads,
            client_connections,
            jobs,
            rayon_threads: std::env::var("RAYON_NUM_THREADS").ok(),
            commit: commit.to_string(),
            l3_bytes: l3_bytes(),
            largest_matrix,
        }
    }

    /// Parallel figures (worker utilisation, 2-connection capacity)
    /// mean nothing as scaling on a single effective CPU.
    pub fn parallel_note(&self) -> &'static str {
        if self.effective_cpus <= 1 {
            "1 effective CPU: no figure here is parallel scaling"
        } else {
            "multi-CPU"
        }
    }

    /// One JSON object holding the whole context.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"nproc\":{},\"effective_cpus\":{},\"client_threads\":{},\"client_connections\":{},\
             \"jobs\":{},\"rayon_num_threads\":{},\"commit\":{},\"l3_bytes\":{},\
             \"largest_matrix\":{},\"largest_matrix_bytes\":{},\"parallelism\":{}",
            self.nproc,
            self.effective_cpus,
            self.client_threads,
            self.client_connections,
            self.jobs,
            self.rayon_threads
                .as_deref()
                .map_or("null".to_string(), json_string),
            json_string(&self.commit),
            self.l3_bytes.map_or("null".to_string(), |b| b.to_string()),
            json_string(&self.largest_matrix.0),
            self.largest_matrix.1,
            json_string(self.parallel_note()),
        );
        out.push('}');
        out
    }
}

/// CPUs in this process's affinity mask (`Cpus_allowed_list`).
fn affinity_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut count = 0;
    for part in list.split(',') {
        match part.split_once('-') {
            Some((a, b)) => {
                count += b.trim().parse::<usize>().ok()? + 1 - a.trim().parse::<usize>().ok()?
            }
            None => {
                part.trim().parse::<usize>().ok()?;
                count += 1;
            }
        }
    }
    Some(count)
}

/// Size of the L3 cache CPU 0 sees, from sysfs (`107520K`).
fn l3_bytes() -> Option<u64> {
    let raw = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let raw = raw.trim();
    let (digits, scale) = match raw.strip_suffix('K') {
        Some(d) => (d, 1024),
        None => match raw.strip_suffix('M') {
            Some(d) => (d, 1024 * 1024),
            None => (raw, 1),
        },
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}
