//! Building `postal-cli` from source and running it the way a user does:
//! one child process per invocation, timed from spawn to exit, with the
//! child's peak resident memory read from the kernel.

use std::ffi::OsString;
use std::fs::File;
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one invocation of the program did.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The exit code, `None` when a signal ended the process.
    pub exit_code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// Host seconds from spawn to exit.
    pub wall_s: f64,
    /// The child's peak resident set, in KiB.
    pub peak_rss_kib: u64,
}

/// Builds the release `postal-cli` binary of the checkout at `root` into
/// `target` and returns its path. Cargo's own output goes to stderr, so
/// the benchmark's stdout carries only results.
pub fn build_cli(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| OsString::from("cargo"));
    let status = Command::new(cargo)
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "postal-cli",
        ])
        .args(["--bin", "postal-cli"])
        .stdin(Stdio::null())
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building postal-cli failed ({status})"));
    }
    let bin = target.join("release").join("postal-cli");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// Runs `bin args…` to completion. Its standard streams go to files in
/// `scratch`, so a child that writes a lot never blocks on a pipe and
/// the benchmark needs no reader threads.
pub fn run(bin: &Path, args: &[String], scratch: &Path) -> Result<Outcome, String> {
    let (out_path, err_path) = (scratch.join("child.stdout"), scratch.join("child.stderr"));
    let create = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let (out, err) = (create(&out_path)?, create(&err_path)?);
    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let (status, peak_rss_kib) = wait_with_rusage(child.id())?;
    let wall_s = start.elapsed().as_secs_f64();
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    Ok(Outcome {
        exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        stdout: read(&out_path)?,
        stderr: read(&err_path)?,
        wall_s,
        peak_rss_kib,
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the peak-RSS probe reads the 64-bit Linux `struct rusage`");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    times: [c_long; 4],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
}

/// Reaps child `pid`, returning its raw wait status and peak RSS (KiB).
/// The standard library's `Child::wait` does not report resource usage,
/// and no `libc` crate is available, so this calls `wait4` directly.
fn wait_with_rusage(pid: u32) -> Result<(i32, u64), String> {
    let pid = c_int::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and 64-bit `struct rusage`; `pid` is our own
        // unreaped child, so no other waiter can race for it.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, u64::try_from(usage.maxrss).unwrap_or(0)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}) failed: {err}"));
        }
    }
}
