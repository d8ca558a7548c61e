//! Launching and measuring the program's own binaries.

use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Command, Output};
use std::time::Instant;

/// A finished child process and its wall time.
#[derive(Debug)]
pub struct Timed {
    /// Seconds from spawn until the process was reaped.
    pub wall_s: f64,
    /// Exit status and captured output.
    pub output: Output,
}

impl Timed {
    /// Captured standard output, lossily decoded.
    pub fn stdout(&self) -> String {
        String::from_utf8_lossy(&self.output.stdout).into_owned()
    }

    /// Captured standard error, lossily decoded.
    pub fn stderr(&self) -> String {
        String::from_utf8_lossy(&self.output.stderr).into_owned()
    }
}

/// Runs `cmd` to completion, capturing its output, and times it.
pub fn run_timed(cmd: &mut Command) -> io::Result<Timed> {
    let start = Instant::now();
    let output = cmd.output()?;
    Ok(Timed {
        wall_s: start.elapsed().as_secs_f64(),
        output,
    })
}

/// `rsls-run` over `ids` with `jobs` workers into the store at `store`
/// (`<store>/cache` plus the sibling `<store>/campaign.journal`).
pub fn rsls_run(bin_dir: &Path, store: &Path, ids: &[&str], jobs: usize) -> Command {
    let mut cmd = Command::new(bin_dir.join("rsls-run"));
    for id in ids {
        cmd.arg("--experiment").arg(id);
    }
    cmd.arg("--jobs")
        .arg(jobs.to_string())
        .arg("--cache-dir")
        .arg(store.join("cache"));
    cmd
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set, in bytes, of the largest child this process has
/// reaped so far (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_peak_rss_bytes() -> Option<u64> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of the
    // platform's `struct rusage` (two `timeval`s then fourteen `long`s
    // on 64-bit Linux), and getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then(|| usage.maxrss_kib as u64 * 1024)
}

/// Peak resident set (`VmHWM`), in bytes, of the live process `pid`.
pub fn vm_hwm_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// A loopback port nothing is listening on right now.
pub fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// Removes `dir` if present and creates it empty.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)
}
