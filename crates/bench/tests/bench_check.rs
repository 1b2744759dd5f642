//! `bench_check`'s ratio gate, run as the binary `scripts/verify.sh` runs:
//! it divides two records sampled in turn round by round, and a gate whose
//! record or reference is missing, or whose two records were not sampled
//! in turn, fails.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A record line with the given per-call samples, in the order taken, by
/// the group's call `turn`.
fn record(name: &str, samples: &[u128], turn: usize) -> String {
    let list: Vec<String> = samples.iter().map(u128::to_string).collect();
    format!(
        "{{\"group\":\"g\",\"name\":\"{name}\",\"median_ns\":1,\"min_ns\":1,\"mean_ns\":1,\
         \"samples\":{},\"warmup\":0,\"samples_ns\":[{}],\"turn\":{turn}}}",
        samples.len(),
        list.join(",")
    )
}

/// The host line every test file starts with.
const HOST: &str = "{\"host\":\"test cpu\",\"simd\":\"avx2\",\"nproc\":2,\"fma_gflops\":{\"avx2\":70.5}}";

/// Writes `lines` as a bench file after a host line; returns its path.
fn bench_file(tag: &str, lines: &[String]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_check_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("BENCH_{tag}.json"));
    std::fs::write(&path, format!("{HOST}\n{}\n", lines.join("\n"))).unwrap();
    path
}

/// Runs `bench_check --file <path> --max-ratio <spec>`; returns whether
/// it passed and what it printed.
fn check(path: &Path, spec: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .args(["--file", path.to_str().unwrap(), "--max-ratio", spec])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).to_string() + &String::from_utf8_lossy(&out.stderr);
    (out.status.success(), text)
}

#[test]
fn ratio_gate_reads_the_median_quotient_of_rounds() {
    // Round quotients 2.0, 2.2, 1.2, so the gate reads 2.0; the records'
    // own medians (240 and 200 ns) would divide to 1.2.
    let path = bench_file(
        "rounds",
        &[record("kernel", &[400, 220, 240], 0), record("fma_ref", &[200, 100, 200], 0)],
    );
    let (ok, text) = check(&path, "kernel:fma_ref:2.1");
    assert!(ok, "{text}");
    assert!(text.contains(HOST), "{text}");
    let (ok, text) = check(&path, "kernel:fma_ref:1.9");
    assert!(!ok && text.contains("ratio 2.000 exceeds the 1.9 bound"), "{text}");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn ratio_gate_fails_when_its_record_or_reference_is_missing() {
    let path = bench_file("missing", &[record("kernel", &[100, 100, 100], 0)]);
    let (ok, text) = check(&path, "kernel:fma_ref:2.0");
    assert!(!ok && text.contains("`fma_ref` (--max-ratio kernel:fma_ref) was not measured"), "{text}");
    let (ok, text) = check(&path, "conv:kernel:2.0");
    assert!(!ok && text.contains("`conv` (--max-ratio conv:kernel) was not measured"), "{text}");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn ratio_gate_fails_on_records_not_sampled_in_turn() {
    // Different round counts, or as many rounds taken by two calls.
    let path = bench_file(
        "apart",
        &[
            record("kernel", &[100, 100, 100], 0),
            record("fma_ref", &[100, 100], 0),
            record("copy_ref", &[100, 100, 100], 1),
        ],
    );
    for spec in ["kernel:fma_ref:2.0", "kernel:copy_ref:2.0"] {
        let (ok, text) = check(&path, spec);
        assert!(!ok && text.contains("were not sampled in turn"), "{spec}: {text}");
    }
    std::fs::remove_file(path).unwrap();
}
