//! Runs one child process to completion and reads its own resource usage.
//!
//! Wall time is an `Instant` around spawn→`wait4`; CPU time and peak RSS
//! come from the `rusage` that `wait4` fills in for exactly this child, so
//! nothing the harness does while the child runs leaks into them.
//!
//! One thing does carry over: Linux seeds a process's `ru_maxrss` at `exec`
//! with the high-water mark of the address space it came from, which is the
//! spawning parent's. A child's peak RSS therefore never reads below the
//! harness's own; [`ChildRun::parent_hwm_kb`] is recorded so a caller can
//! tell a measured peak from a masked one, and the harness has to stay
//! smaller than its smallest child.

use std::fs::File;
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn seconds(&self) -> f64 {
        self.sec as f64 + self.usec as f64 / 1e6
    }
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    pub wall_s: f64,
    /// User + system CPU seconds of the child (all its threads).
    pub cpu_s: f64,
    pub maxrss_kb: u64,
    /// The harness's own peak RSS when it spawned the child: the floor of
    /// `maxrss_kb`.
    pub parent_hwm_kb: u64,
    pub status: ExitStatus,
}

/// This process's peak resident set so far (`VmHWM`), in kB.
fn own_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// Spawns `program args…` with stdout and stderr sent to the two files,
/// waits for it and returns its cost. Files, not pipes: nothing has to
/// drain them while the child runs, so the harness stays single-threaded.
pub fn run_child(
    program: &Path,
    args: &[String],
    stdout: &Path,
    stderr: &Path,
) -> Result<ChildRun, String> {
    let create =
        |p: &Path| File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()));
    let mut cmd = Command::new(program);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(create(stdout)?)
        .stderr(create(stderr)?);
    let parent_hwm_kb = own_hwm_kb();
    let start = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable and of the layout
        // wait4(2) documents for this target; `pid` is a child of this
        // process that nothing else reaps (`child.wait()` is never called).
        let got = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if got == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    Ok(ChildRun {
        wall_s,
        cpu_s: ru.utime.seconds() + ru.stime.seconds(),
        maxrss_kb: ru.maxrss_kb.max(0) as u64,
        parent_hwm_kb,
        status: ExitStatus::from_raw(status),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, tag: &str) -> (ChildRun, String) {
        let dir = crate::host::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!(
            "predator-benchmark-{}-{tag}.out",
            std::process::id()
        ));
        let err = dir.join(format!(
            "predator-benchmark-{}-{tag}.err",
            std::process::id()
        ));
        let run = run_child(
            Path::new("/bin/sh"),
            &["-c".to_string(), script.to_string()],
            &out,
            &err,
        )
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&err);
        (run, text)
    }

    #[test]
    fn rusage_reports_the_childs_own_cpu_and_memory() {
        let (run, text) = sh(
            "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done; echo done",
            "busy",
        );
        assert!(run.status.success());
        assert_eq!(text, "done\n");
        assert!(run.cpu_s > 0.0, "a busy loop must cost CPU: {run:?}");
        assert!(run.maxrss_kb > 100, "a shell needs some memory: {run:?}");
        assert!(run.parent_hwm_kb > 100, "so does this test: {run:?}");
        assert!(run.wall_s >= run.cpu_s * 0.5, "one thread: {run:?}");
    }

    #[test]
    fn exit_code_and_sleep_are_told_apart_from_cpu() {
        let (run, _) = sh("sleep 0.2; exit 3", "sleepy");
        assert_eq!(run.status.code(), Some(3));
        assert!(run.wall_s >= 0.2);
        assert!(run.cpu_s < 0.1, "sleeping is not CPU time: {run:?}");
    }
}
