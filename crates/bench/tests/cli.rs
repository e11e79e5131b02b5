//! The `whale-bench` binary at its command line.

use std::path::PathBuf;
use std::process::Command;

fn whale_bench(cwd: &PathBuf) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_whale-bench"));
    cmd.current_dir(cwd)
        .env_remove("WHALE_SCALE")
        .env_remove("WHALE_BENCH_DIR")
        .env_remove("WHALE_RESULTS_DIR");
    cmd
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("whale-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Only a run at the scale the committed headlines were generated at may
/// write one into the working directory.
#[test]
fn a_smoke_run_leaves_a_committed_report_untouched() {
    let dir = scratch_dir("smoke");
    let committed = dir.join("BENCH_shards.json");
    std::fs::write(&committed, "the committed report\n").unwrap();
    for args in [["run", "shards", "--smoke"], ["run", "E24", "--smoke"]] {
        let out = whale_bench(&dir).args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let full = whale_bench(&dir)
        .args(["run", "one_sided"])
        .env("WHALE_SCALE", "full")
        .output()
        .unwrap();
    assert!(full.status.success());
    assert_eq!(
        std::fs::read_to_string(&committed).unwrap(),
        "the committed report\n"
    );
    assert!(!dir.join("BENCH_one_sided.json").exists());
    for report in [
        "BENCH_shards.json",
        "BENCH_one_sided.json",
        "live_shards.json",
    ] {
        let written = std::fs::read_to_string(dir.join("results").join(report)).unwrap();
        assert!(written.contains("whale-bench/v1"), "{report}: {written}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn list_prints_the_index_and_an_unknown_name_is_a_usage_error() {
    let dir = scratch_dir("list");
    let list = whale_bench(&dir).arg("list").output().unwrap();
    assert!(list.status.success());
    let index = String::from_utf8(list.stdout).unwrap();
    assert_eq!(index, whale_bench::experiments::index_table());
    for args in [&["run", "nonsense"][..], &["run"], &["frobnicate"], &[]] {
        let out = whale_bench(&dir).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
