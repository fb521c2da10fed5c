//! `predator` — run the evaluation workloads under the PREDATOR detector
//! and print ranked false-sharing reports (the paper's Figure 5 format).
//!
//! ```text
//! predator list
//! predator run linear_regression
//! predator run histogram --fixed --threads 8 --iters 50000
//! predator run mysql --no-prediction --format json
//! predator native linear_regression --iters 2000000
//! predator replay trace.ptrace
//! predator help [<verb>...]
//! ```
//!
//! What each verb takes is one row of `verbs::VERBS`; `args` derives the
//! parser and the help text from it, the handlers live in one module per
//! verb family, and this file is what surrounds a handler: the stdout
//! shim, the process-level observability streams, signals, exit codes.

/// Every `print!`/`println!` in this crate is one of these, not std's:
/// std's panic when stdout is gone (exit 101 and a backtrace for
/// `predator analyze ... | head`), and a reader closing the pipe is a normal
/// end of output. See [`print_stdout`].
macro_rules! print {
    ($($arg:tt)*) => { $crate::print_stdout(format_args!($($arg)*)) };
}
macro_rules! println {
    () => { $crate::print_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { $crate::print_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

mod args;
mod compare;
mod detect;
mod explain;
mod fleet;
mod monitor;
mod serve;
mod trace;
mod verbs;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use args::{Args, Parsed};
use detect::Format;

/// Set by the first write to stdout that fails with EPIPE.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout until its reader goes away; from then on output is
/// dropped and the verb runs to its normal end — the gate verdict still
/// goes to stderr and the exit code, `main` still writes
/// `--trace-timeline`. Any other write error is as fatal as it is under
/// std's `println!`.
fn print_stdout(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed)
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// The `--trace-timeline` file, created before the verb runs and written
/// once, by whichever way out of the process gets there first.
static TIMELINE_OUT: Mutex<Option<(String, std::fs::File)>> = Mutex::new(None);

/// Arms the Chrome-trace timeline buffer when `--trace-timeline <PATH>` is
/// present. The file is created now, so a path that cannot be written fails
/// the verb before it runs; the events are written at exit — by `main`, or
/// by [`FlushGuard`] on a panic — so panicking or early-exiting runs still
/// leave a valid trace.
fn install_timeline(args: &Args) -> Result<(), String> {
    let Some(path) = args.get("--trace-timeline") else {
        return Ok(());
    };
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    *TIMELINE_OUT.lock().unwrap() = Some((path.to_string(), file));
    predator_obs::timeline().install(predator_obs::timeline::DEFAULT_CAPACITY);
    Ok(())
}

/// Writes the timeline file when dropped, for the ways out of `main` that
/// skip its own write — panic unwinding above all — so truncated runs still
/// leave a valid, loss-accounted file behind.
struct FlushGuard;

impl Drop for FlushGuard {
    fn drop(&mut self) {
        if let Err(e) = write_timeline() {
            eprintln!("error: {e}");
        }
    }
}

/// Writes the `--trace-timeline` file if it has not been written yet.
fn write_timeline() -> Result<(), String> {
    // Held across the write: a second caller waits, then finds nothing.
    let mut out = TIMELINE_OUT.lock().unwrap_or_else(PoisonError::into_inner);
    let Some((path, file)) = out.take() else {
        return Ok(());
    };
    predator_obs::timeline()
        .write_json(&mut std::io::BufWriter::new(file))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("trace timeline written to {path}");
    Ok(())
}

/// Registers SIGINT/SIGTERM handlers that set the process-wide graceful
/// shutdown flag ([`predator_core::shutdown`]). The handler body is a
/// relaxed store to a static atomic — async-signal-safe; everything else
/// happens on normal threads that notice the flag.
#[cfg(unix)]
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" fn on_signal(_sig: i32) {
        predator_core::shutdown::request();
    }
    // std links libc; declaring `signal` here keeps the CLI dependency-free.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// For commands whose main loop does not poll the shutdown flag (`run`,
/// `analyze`, ... — every row without `polls_shutdown`), a detached watcher
/// turns an interrupt into a flush-then-exit: the `--trace-timeline` file is
/// written before the process dies, exactly as `main` would have done on a
/// normal exit.
fn arm_interrupt_watcher() {
    let _ = std::thread::Builder::new()
        .name("predator-sigwatch".into())
        .spawn(|| loop {
            if predator_core::shutdown::requested() {
                eprintln!("interrupted — flushing observability streams");
                if let Err(e) = write_timeline() {
                    eprintln!("error: {e}");
                }
                // 130 = 128 + SIGINT, the conventional interrupt exit code.
                std::process::exit(130);
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
}

/// Turns the flight recorder on for the verbs whose row says so (reports
/// then embed timelines for `explain`) unless `--no-recorder` opts out.
fn install_recorder(args: &Args) {
    if args.verb.recorder && !args.has("--no-recorder") {
        predator_obs::recorder::recorder().enable(predator_obs::recorder::DEFAULT_DEPTH);
    }
}

/// Writes the end-of-run metrics snapshot where `--metrics` asked for it.
fn emit_metrics(args: &Args) -> Result<(), String> {
    let Some(path) = args.get("--metrics") else {
        return Ok(());
    };
    let snap = predator_obs::global().snapshot();
    if path == "-" {
        // Machine formats own stdout (a JSON report already embeds the
        // snapshot; SARIF/HTML documents must not be followed by stray
        // JSON), so the inline dump only renders for human formats.
        if !Format::of(args).is_ok_and(Format::is_machine) {
            println!("{}", snap.to_json());
        }
    } else {
        std::fs::write(path, snap.to_json() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let prom = format!("{path}.prom");
        std::fs::write(&prom, snap.to_prometheus())
            .map_err(|e| format!("cannot write {prom}: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&raw) {
        Ok(Parsed::Run(a)) => a,
        Ok(Parsed::Help(rows)) => {
            print!("{}", args::help(&rows));
            return ExitCode::SUCCESS;
        }
        Err(e) => return fail(&e),
    };
    // Before anything is created or run: `run ... --format yaml` must not
    // cost a whole workload to be told so.
    if let Err(e) = Format::of(&args) {
        return fail(&e);
    }
    if let Err(e) = install_timeline(&args) {
        return fail(&e);
    }
    // Dropped last thing before exit: writes the `--trace-timeline` file on
    // a path out of main that skipped the write below, a panic included.
    // Commands must therefore *return* their exit code rather than calling
    // `std::process::exit` (which skips destructors).
    let _flush = FlushGuard;
    install_signal_handlers();
    // A verb that polls the shutdown flag itself (`serve`) exits its loop
    // gracefully and `main` writes the timeline; every other verb gets the
    // flush-then-exit watcher.
    if !args.verb.polls_shutdown {
        arm_interrupt_watcher();
    }
    install_recorder(&args);
    let result = (args.verb.run)(&args).and_then(|code| emit_metrics(&args).map(|()| code));
    let code = result.unwrap_or_else(|e| fail(&e));
    // A timeline that cannot be written fails the run, as `--metrics` does.
    write_timeline().map_or_else(|e| fail(&e), |()| code)
}

/// Every failure says what failed and where the manual is; the manual
/// itself prints only when asked for (`help`, `--help`, no verb).
fn fail(e: &str) -> ExitCode {
    eprintln!("error: {e}\nrun `predator help` for usage");
    ExitCode::FAILURE
}
