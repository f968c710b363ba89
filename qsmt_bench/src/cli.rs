//! Runs `qsmt solve` as a user would: one child process per script,
//! timed from spawn to exit, with the child's peak RSS from `wait4(2)`.

use std::io::{self, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("qsmt_bench reads child memory with Linux wait4(2) and /proc");

/// One finished `qsmt solve`.
pub struct Exec {
    pub latency_ms: f64,
    /// Exited normally with status 0.
    pub ok: bool,
    pub stdout: String,
    pub max_rss_kib: u64,
}

/// `qsmt solve <file> [--seed N]`.
pub fn solve(qsmt: &Path, file: &Path, seed: Option<u64>) -> io::Result<Exec> {
    let mut cmd = Command::new(qsmt);
    cmd.arg("solve").arg(file);
    if let Some(seed) = seed {
        cmd.arg("--seed").arg(seed.to_string());
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let (status, max_rss_kib) = wait_rusage(&child)?;
    let latency_ms = start.elapsed().as_secs_f64() * 1000.0;
    read?;
    Ok(Exec {
        latency_ms,
        ok: status == 0,
        stdout,
        max_rss_kib,
    })
}

/// Reaps `child` with `wait4(2)`, returning its raw wait status and peak
/// resident set size in KiB. The `Child` must not be waited on again.
fn wait_rusage(child: &Child) -> io::Result<(i32, u64)> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s (four words),
    /// then fourteen `long`s starting with `ru_maxrss`.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage([0; 18]);
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // size and layout wait4(2) writes on 64-bit Linux (checked by
        // the compile_error! gate above), and `pid` is our own unreaped
        // child, so the call cannot touch another process's state.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, u64::try_from(usage.0[4]).unwrap_or(0)));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}
