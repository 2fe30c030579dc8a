//! End-to-end CLI robustness: crash reports, exit codes, and
//! checkpoint → resume output equality through the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gdisim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gdisim"))
        .args(args)
        .output()
        .expect("gdisim binary launches")
}

/// Scratch directory unique to one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gdisim-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir creates");
        Scratch(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Strips the lines that legitimately differ between an uninterrupted
/// run and a resumed one: banners, checkpoint notices and wall-clock
/// timings. Everything left must match byte-for-byte.
fn comparable(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| {
            !l.starts_with("run: ")
                && !l.starts_with("resume: ")
                && !l.starts_with("checkpoint: ")
                && !l.starts_with("simulated ")
                && !l.starts_with("trace: wrote ")
                && !l.contains("ms, waited")
                && !l.contains("ms at barriers")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn sharded_crash_emits_report_and_fails() {
    let out = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "5",
        "--shards",
        "2",
        "--inject-panic",
        "1:120",
    ]);
    assert!(!out.status.success(), "a crashed run must exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("\"schema\": \"gdisim.crash.v1\""),
        "stdout must carry the typed crash report, got:\n{stdout}"
    );
    assert!(
        stdout.contains("\"shard\": 1"),
        "report must name the shard:\n{stdout}"
    );
    assert!(
        stdout.contains("injected panic"),
        "report must carry the panic message:\n{stdout}"
    );
    assert!(
        stderr.contains("simulation crashed"),
        "stderr must explain the failure:\n{stderr}"
    );
}

#[test]
fn serial_crash_links_the_last_checkpoint() {
    let scratch = Scratch::new("crash-ckpt");
    let out = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "5",
        "--checkpoint-every",
        "60",
        "--checkpoint-dir",
        scratch.path(),
        "--inject-panic",
        "0:150",
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"schema\": \"gdisim.crash.v1\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"shard\": 0"), "{stdout}");
    assert!(
        stdout.contains("churned-t0000000120.ckpt"),
        "the report must point at the t=120s checkpoint for restart:\n{stdout}"
    );
}

#[test]
fn resume_reproduces_the_uninterrupted_run() {
    let scratch = Scratch::new("resume");
    let full = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "4",
        "--checkpoint-every",
        "60",
        "--checkpoint-dir",
        scratch.path(),
    ]);
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let ckpt = PathBuf::from(scratch.path()).join("churned-t0000000120.ckpt");
    assert!(
        ckpt.exists(),
        "mid-run checkpoint must exist at {}",
        ckpt.display()
    );

    let resumed = gdisim(&["run", "--resume", ckpt.to_str().unwrap(), "--minutes", "4"]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    let want = comparable(&full.stdout);
    let got = comparable(&resumed.stdout);
    assert!(!want.is_empty(), "the comparison must cover real output");
    assert_eq!(
        want, got,
        "resumed stdout diverged from the uninterrupted run"
    );
}

#[test]
fn resume_rejects_a_mismatched_scenario() {
    let scratch = Scratch::new("mismatch");
    let full = gdisim(&[
        "run",
        "--scenario",
        "faulted",
        "--minutes",
        "3",
        "--checkpoint-every",
        "60",
        "--checkpoint-dir",
        scratch.path(),
    ]);
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let ckpt = PathBuf::from(scratch.path()).join("faulted-t0000000120.ckpt");
    let out = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("does not match"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn paranoid_cli_runs_clean_and_gates_on_violations() {
    let out = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "5",
        "--paranoid",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("invariant checks, 0 violations"),
        "paranoid summary missing or dirty:\n{stdout}"
    );
}

#[test]
fn corrupt_checkpoint_is_a_typed_error() {
    let scratch = Scratch::new("corrupt");
    let path = PathBuf::from(scratch.path()).join("bogus.ckpt");
    std::fs::write(&path, b"definitely not a checkpoint").unwrap();
    let out = gdisim(&["run", "--resume", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad magic"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn deeply_nested_fault_plan_is_a_typed_error() {
    // 200k unclosed `[` would recurse an unbounded JSON parser off the
    // stack and abort the process (SIGABRT, exit 134) before any error
    // path runs.
    let scratch = Scratch::new("deep-json");
    let path = PathBuf::from(scratch.path()).join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let out = gdisim(&[
        "run",
        "--scenario",
        "faulted",
        "--faults",
        path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "killed by a signal? {stderr}");
    assert!(
        stderr.contains("error: fault plan does not parse: recursion limit exceeded"),
        "{stderr}"
    );
}
