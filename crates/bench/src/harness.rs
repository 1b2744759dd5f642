//! Minimal in-tree timing harness — the hermetic replacement for the
//! `criterion` dev-dependency.
//!
//! Each benchmark group owns a `BENCH_<group>.json` file at the workspace
//! root, written as JSON lines (one record per benchmark) so successive
//! runs are trivially diffable and the perf trajectory can be tracked
//! across PRs:
//!
//! ```json
//! {"group":"kernels","name":"conv2d_fwd_8x16x32x32","median_ns":1234567,
//!  "min_ns":1200000,"mean_ns":1250000,"samples":7,"warmup":2}
//! ```
//!
//! Methodology: `warmup` untimed calls, then `samples` timed calls; the
//! reported statistic is the **median** (robust to scheduler noise on a
//! shared CPU host), with min and mean alongside. Very fast benchmarks are
//! auto-batched: each timed sample runs enough inner iterations to last
//! ≥ ~200 µs, and per-call time is the sample time divided by the batch.

use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Target minimum wall time per timed sample; calls faster than this get
/// batched so clock granularity does not dominate.
const MIN_SAMPLE_NS: u128 = 200_000;

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Group (file) the benchmark belongs to.
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Median per-call time, nanoseconds.
    pub median_ns: u128,
    /// Fastest per-call time, nanoseconds.
    pub min_ns: u128,
    /// Mean per-call time, nanoseconds.
    pub mean_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
    /// Number of untimed warmup calls.
    pub warmup: usize,
    /// Peak memory the benchmark touched, in bytes — present only for
    /// memory benchmarks (the `memory` group annotates resident
    /// activation peaks via [`BenchGroup::set_peak_bytes`]).
    pub peak_bytes: Option<u128>,
    /// 99th-percentile per-call time, nanoseconds — present only for
    /// latency-distribution records ([`BenchGroup::record_latency`]),
    /// where `median_ns` doubles as the p50. Gated by
    /// `bench_check --max-p99`.
    pub p99_ns: Option<u128>,
}

impl BenchRecord {
    /// The JSON-line serialization (no external serializer needed: every
    /// field is numeric except the two names, which we escape minimally).
    pub fn to_json(&self) -> String {
        let peak = self
            .peak_bytes
            .map(|b| format!(",\"peak_bytes\":{b}"))
            .unwrap_or_default();
        let p99 = self
            .p99_ns
            .map(|v| format!(",\"p99_ns\":{v}"))
            .unwrap_or_default();
        format!(
            "{{\"group\":\"{}\",\"name\":\"{}\",\"median_ns\":{},\"min_ns\":{},\
             \"mean_ns\":{},\"samples\":{},\"warmup\":{}{peak}{p99}}}",
            escape(&self.group),
            escape(&self.name),
            self.median_ns,
            self.min_ns,
            self.mean_ns,
            self.samples,
            self.warmup
        )
    }
}

impl BenchRecord {
    /// Parses one JSON line previously produced by [`BenchRecord::to_json`].
    /// The accepted grammar is exactly the record shape (all seven fields,
    /// any order) — deliberately stricter than general JSON, so a corrupt
    /// or truncated bench file fails loudly in `scripts/verify.sh`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first syntax problem, unknown field,
    /// or missing field.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let mut p = JsonCursor::new(line);
        p.expect('{')?;
        let (mut group, mut name) = (None, None);
        let (mut median_ns, mut min_ns, mut mean_ns) = (None, None, None);
        let (mut samples, mut warmup) = (None, None);
        let mut peak_bytes = None;
        let mut p99_ns = None;
        loop {
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "group" => group = Some(p.string()?),
                "name" => name = Some(p.string()?),
                "median_ns" => median_ns = Some(p.number()?),
                "min_ns" => min_ns = Some(p.number()?),
                "mean_ns" => mean_ns = Some(p.number()?),
                "samples" => samples = Some(p.number()? as usize),
                "warmup" => warmup = Some(p.number()? as usize),
                "peak_bytes" => peak_bytes = Some(p.number()?),
                "p99_ns" => p99_ns = Some(p.number()?),
                other => return Err(format!("unknown field `{other}`")),
            }
            if p.eat(',') {
                continue;
            }
            p.expect('}')?;
            break;
        }
        p.end()?;
        let missing = |f: &str| format!("missing field `{f}`");
        Ok(BenchRecord {
            group: group.ok_or_else(|| missing("group"))?,
            name: name.ok_or_else(|| missing("name"))?,
            median_ns: median_ns.ok_or_else(|| missing("median_ns"))?,
            min_ns: min_ns.ok_or_else(|| missing("min_ns"))?,
            mean_ns: mean_ns.ok_or_else(|| missing("mean_ns"))?,
            samples: samples.ok_or_else(|| missing("samples"))?,
            warmup: warmup.ok_or_else(|| missing("warmup"))?,
            peak_bytes,
            p99_ns,
        })
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Byte cursor over one JSON line, with just the pieces the record shape
/// needs: `"string"` (with `\\` and `\"` escapes), unsigned integers, and
/// fixed punctuation. Whitespace is allowed around every token.
struct JsonCursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> JsonCursor<'a> {
    fn new(s: &'a str) -> Self {
        JsonCursor { s: s.as_bytes(), i: 0 }
    }

    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn expect(&mut self, ch: char) -> Result<(), String> {
        if self.eat(ch) {
            Ok(())
        } else {
            Err(format!("expected `{ch}` at byte {}", self.i))
        }
    }

    fn eat(&mut self, ch: char) -> bool {
        self.skip_ws();
        if self.s.get(self.i) == Some(&(ch as u8)) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.i + 1);
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 2;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u128, String> {
        self.skip_ws();
        let start = self.i;
        while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.s[start..self.i])
            .expect("digits are utf-8")
            .parse()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.i == self.s.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.i))
        }
    }
}

/// One timed sample: nanoseconds per call over `batch` back-to-back calls.
fn sample<T>(f: &mut impl FnMut() -> T, batch: usize) -> u128 {
    let t = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    t.elapsed().as_nanos() / batch as u128
}

/// A named group of benchmarks writing one `BENCH_<group>.json` file.
pub struct BenchGroup {
    group: String,
    warmup: usize,
    samples: usize,
    records: Vec<BenchRecord>,
}

impl BenchGroup {
    /// Starts a group. Defaults: 2 warmup calls, 7 timed samples.
    pub fn new(group: &str) -> Self {
        BenchGroup {
            group: group.to_string(),
            warmup: 2,
            samples: 7,
            records: Vec::new(),
        }
    }

    /// Sets the number of timed samples (median-of-k).
    pub fn sample_size(&mut self, k: usize) -> &mut Self {
        self.samples = k.max(1);
        self
    }

    /// Sets the number of untimed warmup calls.
    pub fn warmup(&mut self, w: usize) -> &mut Self {
        self.warmup = w;
        self
    }

    /// Times `f` and records the result under `name`.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &mut Self {
        let batch = self.calibrate(&mut f);
        let per_call = (0..self.samples).map(|_| sample(&mut f, batch)).collect();
        self.record(name, per_call)
    }

    /// Times two closures that should cost the same — one code path
    /// reached two ways — with their samples taken alternately, so a host
    /// that changes speed mid-run changes it under both records and their
    /// ratio says something about the code. Records `a`, then `b`.
    pub fn bench_twins<T>(
        &mut self,
        (name_a, mut a): (&str, impl FnMut() -> T),
        (name_b, mut b): (&str, impl FnMut() -> T),
    ) -> &mut Self {
        let (batch_a, batch_b) = (self.calibrate(&mut a), self.calibrate(&mut b));
        let (mut per_a, mut per_b) = (Vec::new(), Vec::new());
        for _ in 0..self.samples {
            per_a.push(sample(&mut a, batch_a));
            per_b.push(sample(&mut b, batch_b));
        }
        self.record(name_a, per_a).record(name_b, per_b)
    }

    /// Runs the warmup calls, then sizes the inner batch so each sample
    /// lasts ≥ `MIN_SAMPLE_NS`.
    fn calibrate<T>(&self, f: &mut impl FnMut() -> T) -> usize {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let probe = Instant::now();
        black_box(f());
        let once_ns = probe.elapsed().as_nanos().max(1);
        (MIN_SAMPLE_NS / once_ns).clamp(0, 10_000) as usize + 1
    }

    /// Reduces one benchmark's per-call samples to a record.
    fn record(&mut self, name: &str, mut per_call: Vec<u128>) -> &mut Self {
        per_call.sort_unstable();
        let median_ns = per_call[per_call.len() / 2];
        let min_ns = per_call[0];
        let mean_ns = per_call.iter().sum::<u128>() / per_call.len() as u128;
        let rec = BenchRecord {
            group: self.group.clone(),
            name: name.to_string(),
            median_ns,
            min_ns,
            mean_ns,
            samples: self.samples,
            warmup: self.warmup,
            peak_bytes: None,
            p99_ns: None,
        };
        println!(
            "{:<40} median {:>12} ns   min {:>12} ns   ({} samples)",
            format!("{}/{}", rec.group, rec.name),
            rec.median_ns,
            rec.min_ns,
            rec.samples
        );
        self.records.push(rec);
        self
    }

    /// Annotates the most recent benchmark with a peak-bytes measurement
    /// (memory benchmarks report both time and bytes per record).
    ///
    /// # Panics
    ///
    /// Panics if nothing has been benched yet.
    pub fn set_peak_bytes(&mut self, bytes: usize) -> &mut Self {
        self.records
            .last_mut()
            .expect("set_peak_bytes needs a preceding bench")
            .peak_bytes = Some(bytes as u128);
        self
    }

    /// Records a bytes-only measurement (no timing): a record whose times
    /// are all zero and whose `peak_bytes` carries the value. Used for
    /// footprint pins — e.g. the conv engine's scratch high-water — that
    /// regression gates check with `bench_check --max-peak`.
    pub fn record_bytes(&mut self, name: &str, bytes: usize) -> &mut Self {
        let rec = BenchRecord {
            group: self.group.clone(),
            name: name.to_string(),
            median_ns: 0,
            min_ns: 0,
            mean_ns: 0,
            samples: 0,
            warmup: 0,
            peak_bytes: Some(bytes as u128),
            p99_ns: None,
        };
        println!(
            "{:<40} peak   {:>12} B",
            format!("{}/{}", rec.group, rec.name),
            bytes
        );
        self.records.push(rec);
        self
    }

    /// Records a latency distribution measured *by the caller* — one
    /// nanosecond value per observed request. `median_ns` carries the p50
    /// and `p99_ns` the 99th percentile (nearest-rank), so serving
    /// benchmarks report tail latency the `--max-p99` gate can pin.
    ///
    /// # Panics
    ///
    /// Panics when `latencies_ns` is empty.
    pub fn record_latency(&mut self, name: &str, latencies_ns: &[u128]) -> &mut Self {
        assert!(!latencies_ns.is_empty(), "a latency record needs samples");
        let mut sorted = latencies_ns.to_vec();
        sorted.sort_unstable();
        let p99 = sorted[(sorted.len() * 99).div_ceil(100).max(1) - 1];
        let rec = BenchRecord {
            group: self.group.clone(),
            name: name.to_string(),
            median_ns: sorted[sorted.len() / 2],
            min_ns: sorted[0],
            mean_ns: sorted.iter().sum::<u128>() / sorted.len() as u128,
            samples: sorted.len(),
            warmup: 0,
            peak_bytes: None,
            p99_ns: Some(p99),
        };
        println!(
            "{:<40} p50    {:>12} ns   p99 {:>12} ns   ({} requests)",
            format!("{}/{}", rec.group, rec.name),
            rec.median_ns,
            p99,
            rec.samples
        );
        self.records.push(rec);
        self
    }

    /// The records measured so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Where this group's JSON file goes: `SCNN_BENCH_DIR` if set,
    /// otherwise the workspace root.
    pub fn output_path(&self) -> PathBuf {
        let dir = std::env::var("SCNN_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| {
                // crates/bench/../.. == workspace root.
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
            });
        dir.join(format!("BENCH_{}.json", self.group))
    }

    /// Writes `BENCH_<group>.json` (overwriting any previous run) and
    /// prints its location.
    pub fn finish(&self) {
        let path = self.output_path();
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
            Ok(()) => println!("wrote {} records to {}", self.records.len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_json_shape() {
        let mut g = BenchGroup::new("selftest");
        g.sample_size(3).warmup(1);
        g.bench("busy_loop", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                // Opaque per iteration, or release builds fold the loop
                // to a constant and a call rounds to 0 ns.
                acc = black_box(acc.wrapping_add(i * i));
            }
            acc
        });
        assert_eq!(g.records().len(), 1);
        let r = &g.records()[0];
        assert!(r.median_ns > 0);
        assert!(r.min_ns <= r.median_ns);
        let j = r.to_json();
        assert!(j.starts_with("{\"group\":\"selftest\",\"name\":\"busy_loop\""), "{j}");
        assert!(j.contains("\"median_ns\":"), "{j}");
        assert!(j.ends_with('}'), "{j}");
    }

    #[test]
    fn json_escapes_quotes() {
        let r = BenchRecord {
            group: "g".into(),
            name: "we\"ird".into(),
            median_ns: 1,
            min_ns: 1,
            mean_ns: 1,
            samples: 1,
            warmup: 0,
            peak_bytes: None,
            p99_ns: None,
        };
        assert!(r.to_json().contains("we\\\"ird"));
    }

    #[test]
    fn json_round_trips() {
        let r = BenchRecord {
            group: "kernels".into(),
            name: "we\"ird\\name".into(),
            median_ns: 123456789,
            min_ns: 120000000,
            mean_ns: 125000000,
            samples: 7,
            warmup: 2,
            peak_bytes: None,
            p99_ns: None,
        };
        let back = BenchRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back.group, r.group);
        assert_eq!(back.name, r.name);
        assert_eq!(back.median_ns, r.median_ns);
        assert_eq!(back.min_ns, r.min_ns);
        assert_eq!(back.mean_ns, r.mean_ns);
        assert_eq!(back.samples, r.samples);
        assert_eq!(back.warmup, r.warmup);
        assert_eq!(back.peak_bytes, None);
    }

    #[test]
    fn peak_bytes_round_trips_and_stays_optional() {
        let mut g = BenchGroup::new("mem");
        g.sample_size(1).warmup(0);
        g.bench("step", || 1 + 1);
        g.set_peak_bytes(4096);
        let j = g.records()[0].to_json();
        assert!(j.contains("\"peak_bytes\":4096"), "{j}");
        let back = BenchRecord::from_json(&j).unwrap();
        assert_eq!(back.peak_bytes, Some(4096));
        // Records without the field still parse (old baselines).
        let plain =
            "{\"group\":\"g\",\"name\":\"n\",\"median_ns\":1,\"min_ns\":1,\
             \"mean_ns\":1,\"samples\":1,\"warmup\":1}";
        assert_eq!(BenchRecord::from_json(plain).unwrap().peak_bytes, None);
    }

    #[test]
    fn latency_records_carry_p50_and_p99() {
        let mut g = BenchGroup::new("serving");
        let lat: Vec<u128> = (1..=100).collect();
        g.record_latency("serve_latency/c1", &lat);
        let r = &g.records()[0];
        assert_eq!(r.median_ns, 51); // sorted[50]
        assert_eq!(r.p99_ns, Some(99)); // nearest-rank p99 of 1..=100
        assert_eq!(r.min_ns, 1);
        assert_eq!(r.samples, 100);
        let back = BenchRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back.p99_ns, Some(99));
        // A single observation is its own p50 and p99.
        g.record_latency("one", &[7]);
        assert_eq!(g.records()[1].p99_ns, Some(7));
        assert_eq!(g.records()[1].median_ns, 7);
    }

    #[test]
    fn from_json_rejects_malformed_lines() {
        for (line, why) in [
            ("", "no opening brace"),
            ("{\"group\":\"g\"}", "missing fields"),
            (
                "{\"group\":\"g\",\"name\":\"n\",\"median_ns\":1,\"min_ns\":1,\
                 \"mean_ns\":1,\"samples\":1,\"warmup\":1} extra",
                "trailing data",
            ),
            (
                "{\"group\":\"g\",\"name\":\"n\",\"median_ns\":-1,\"min_ns\":1,\
                 \"mean_ns\":1,\"samples\":1,\"warmup\":1}",
                "negative number",
            ),
            (
                "{\"group\":\"g\",\"name\":\"n\",\"median_ns\":1,\"min_ns\":1,\
                 \"mean_ns\":1,\"samples\":1,\"bogus\":1}",
                "unknown field",
            ),
        ] {
            assert!(BenchRecord::from_json(line).is_err(), "accepted {why}: {line}");
        }
    }

    #[test]
    fn output_path_honors_env_dir() {
        let g = BenchGroup::new("pathtest");
        let p = g.output_path();
        assert!(p.file_name().unwrap().to_str().unwrap() == "BENCH_pathtest.json");
    }
}
