//! Where the benchmark runs: cores, load, the `predator` binary under test
//! and the scratch directory — everything host-specific in one place.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `benchmark/`, as compiled in: the harness is built inside the checkout
/// it measures.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn repo_root() -> &'static Path {
    bench_dir()
        .parent()
        .expect("the benchmark package sits one level below the repo root")
}

/// `benchmark/out/`: traces, child output and span files; git-ignored.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// 1024 CPUs: the kernel's default `cpu_set_t`.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is live, writable and as long as the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pins the calling thread — and so every child process and every thread it
/// starts from now on — to one CPU.
fn pin_to(cpu: usize) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is live and as long as the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    /// `--shards K` for the offline verbs, `max(1, nproc − 1)`: the shard
    /// plan a user of this host would get next to the dispatcher.
    pub shards: usize,
    /// The (at most two) CPUs repetitions take turns on; see [`Host::pin`].
    pub cpus: Vec<usize>,
    pub predator: PathBuf,
}

impl Host {
    /// Builds the CLI of this checkout (a no-op when it is fresh), checks
    /// the host has a core to spare for everything that is not the
    /// benchmark, and pins the caller to one CPU. Nothing here is timed: it
    /// happens before set-up starts.
    pub fn prepare() -> Result<Host, String> {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .map_err(|e| format!("cannot tell the core count: {e}"))?;
        let shards = nproc.saturating_sub(1).max(1);
        if shards + 1 > nproc {
            return Err(format!(
                "refusing to run: K = {shards} shard(s) next to a dispatcher means {} cores, host has {nproc}",
                shards + 1
            ));
        }
        let root = repo_root();
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "predator-cli",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building predator-cli failed: {status}"));
        }
        // Cargo put it where it puts every build of the root workspace.
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| root.join("target"));
        let predator = target.join("release").join("predator");
        if !predator.is_file() {
            return Err(format!(
                "refusing to run: no predator binary at {}",
                predator.display()
            ));
        }
        let allowed = allowed_cpus()?;
        let host = Host {
            nproc,
            shards,
            cpus: allowed[allowed.len().saturating_sub(2)..].to_vec(),
            predator,
        };
        host.pin(0)?;
        Ok(host)
    }

    /// Pins the calling thread, and everything it starts from now on, to
    /// one CPU: repetition `turn` runs wholly on `cpus[turn % 2]`.
    ///
    /// One CPU at a time, because the offline verbs hand batches from a
    /// dispatcher thread to shard workers and, spread over the vCPUs of a
    /// shared VM, each hand-off is a cross-CPU wake-up whose cost follows
    /// the neighbours (block minima of one `analyze` ranged over 21 %; on
    /// one CPU, 1.7 %). Taking turns on two, because a neighbour slows one
    /// vCPU for tens of seconds at a time and rarely both: best-of then
    /// finds whichever is quiet.
    pub fn pin(&self, turn: usize) -> Result<(), String> {
        match self.cpus.as_slice() {
            [] => Err("no CPU to run on".into()),
            cpus => pin_to(cpus[turn % cpus.len()]),
        }
    }
}

/// A fresh directory under `benchmark/out/`, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(tag: &str) -> Result<Scratch, String> {
        let dir = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        // A stale one can only be a leftover of a killed run with this pid.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
