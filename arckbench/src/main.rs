//! The repository benchmark: runs one workload on the default ArckFS+
//! stack, checks its outputs, and prints every metric with its unit and
//! sample count, ending with one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path arckbench/Cargo.toml -- \
//!     --workload meta_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced passes;
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics. See `README.md` beside this crate.

mod kv_mixed;
mod meta_churn;
mod report;
mod rng;
mod share_handoff;
mod stack;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Pass};

/// A run ends with a pass expected to finish before this many seconds.
const WALL_CAP_S: f64 = 120.0;
/// Passes per run at the least, so set-up time is a median of several.
const MIN_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetaChurn,
    KvMixed,
    ShareHandoff,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "meta_churn" => Some(Workload::MetaChurn),
            "kv_mixed" => Some(Workload::KvMixed),
            "share_handoff" => Some(Workload::ShareHandoff),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetaChurn => "meta_churn",
            Workload::KvMixed => "kv_mixed",
            Workload::ShareHandoff => "share_handoff",
        }
    }

    /// One fresh stack: set-up, the fixed work, the output checks; the
    /// `last` pass of a run also checks the final image.
    pub fn pass(self, seed: u64, traced: bool, last: bool) -> Pass {
        match self {
            Workload::MetaChurn => {
                meta_churn::pass(&meta_churn::Params::standard(), seed, traced, last)
            }
            Workload::KvMixed => kv_mixed::pass(&kv_mixed::Params::standard(), seed, traced, last),
            Workload::ShareHandoff => {
                share_handoff::pass(&share_handoff::Params::standard(), seed, traced, last)
            }
        }
    }

    /// The crash-and-recover check, where the workload has one. kvstore
    /// truncates its WAL on open and has no replay, so kv_mixed has only
    /// the final-image fsck.
    pub fn durability(self, seed: u64) -> Option<Result<(), String>> {
        match self {
            Workload::MetaChurn => Some(meta_churn::durability(seed)),
            Workload::KvMixed => None,
            Workload::ShareHandoff => Some(share_handoff::durability(seed)),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident memory of this process so far.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arckbench: {e}");
            eprintln!(
                "usage: arckbench --workload meta_churn|kv_mixed|share_handoff \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let overrides = stack::overriding_env();
    if !overrides.is_empty() {
        eprintln!(
            "arckbench: measures the default configuration only; unset {}",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let wl = args.workload;
    println!(
        "# workload={} trace={} {}",
        wl.name(),
        u8::from(args.trace),
        stack::describe(args.seed)
    );

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = 0.0;
    // The previous pass's timed phase and whole duration predict the next.
    let (mut prev_timed, mut prev_total) = (0.0, 0.0);
    loop {
        // A traced run alternates untraced and traced passes.
        let traced = args.trace && passes.len() % 2 == 1;
        let last = passes.len() + 1 >= MIN_PASSES
            && (measured + prev_timed >= args.seconds
                || started.elapsed().as_secs_f64() + 2.0 * prev_total > WALL_CAP_S);
        let t0 = Instant::now();
        let pass = wl.pass(args.seed, traced, last);
        let pass_s = t0.elapsed().as_secs_f64();
        println!(
            "# pass {} traced={traced} setup_s={:.3} timed_s={:.3} other_s={:.3} read_p99_us={:.1} \
             write_p99_us={:.1} ops={} failed={} check={}",
            passes.len(),
            pass.setup_s,
            pass.wall_s,
            pass_s - pass.setup_s - pass.wall_s,
            report::percentile(&pass.reads, 0.99),
            report::percentile(&pass.writes, 0.99),
            pass.ops,
            pass.failed,
            pass.error.as_deref().unwrap_or("ok")
        );
        measured += pass.wall_s;
        (prev_timed, prev_total) = (pass.wall_s, pass_s);
        passes.push(pass);
        if last {
            break;
        }
    }
    let peak = peak_rss_mib();

    let mut correct = true;
    for (i, p) in passes.iter().enumerate() {
        if let Some(e) = &p.error {
            eprintln!("arckbench: pass {i} failed its checks: {e}");
            correct = false;
        }
    }
    match wl.durability(args.seed) {
        None => println!("# durability check: none for this workload"),
        Some(Ok(())) => println!("# durability check: ok"),
        Some(Err(e)) => {
            eprintln!("arckbench: durability check failed: {e}");
            correct = false;
        }
    }

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let attempted: u64 = passes.iter().map(|p| p.ops).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let e2e = report::end_to_end(&untraced, peak);
    print_metrics(&e2e);
    print_metrics(&report::informational(&untraced));
    let reported = if args.trace {
        let layers = report::per_layer(&untraced, &traced);
        print_metrics(&layers);
        if let Some(last) = traced.last() {
            let path = Path::new("arckbench/out").join(format!("spans-{}.tsv", wl.name()));
            match trace::write_spans(&path, &last.spans) {
                Ok(()) => println!("# spans of the last traced pass: {}", path.display()),
                Err(e) => eprintln!("arckbench: writing {}: {e}", path.display()),
            }
        }
        layers
    } else {
        e2e
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &reported)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use crate::stack::Snap;
    use crate::{kv_mixed, meta_churn, share_handoff};

    /// The `pmem` and `trio` counts the steadiness self-test requires to
    /// repeat exactly for a seed.
    fn repeatable(c: &Snap) -> Vec<(&'static str, u64)> {
        let (p, k) = (&c.pm, &c.kernel);
        vec![
            ("pmem.stores", p.stores),
            ("pmem.bytes_written", p.bytes_written),
            ("pmem.loads", p.loads),
            ("pmem.bytes_read", p.bytes_read),
            ("pmem.clwb", p.clwb),
            ("pmem.ntstores", p.ntstores),
            ("pmem.sfences", p.sfences),
            ("trio.syscalls", k.syscalls),
            ("trio.acquires", k.acquires),
            ("trio.releases", k.releases),
            ("trio.verifications", k.verifications),
            ("trio.verify_failures", k.verify_failures),
            ("trio.rollbacks", k.rollbacks),
            ("trio.alloc_lock_acqs", c.alloc_lock_acqs),
        ]
    }

    fn small_kv() -> kv_mixed::Params {
        kv_mixed::Params {
            keys: 2_000,
            value_bytes: 1024,
            ops: 3_000,
            warmup_gets: 100,
            dev_len: 32 << 20,
        }
    }

    fn small_share() -> share_handoff::Params {
        share_handoff::Params {
            premade: 64,
            turns: 8,
            rounds: 4,
            warmup_turns: 2,
            dev_len: 16 << 20,
        }
    }

    #[test]
    fn kv_mixed_counts_repeat_for_a_seed() {
        let p = small_kv();
        let a = kv_mixed::pass(&p, 7, false, true);
        let b = kv_mixed::pass(&p, 7, true, true);
        assert_eq!((a.error.as_deref(), b.error.as_deref()), (None, None));
        assert!(b.flushes > 0, "the small run must still flush");
        assert_eq!(repeatable(&a.counts), repeatable(&b.counts));
        assert_ne!(
            repeatable(&a.counts),
            repeatable(&kv_mixed::pass(&p, 8, false, false).counts),
            "another seed draws other inputs"
        );
    }

    #[test]
    fn share_handoff_counts_repeat_for_a_seed() {
        let p = small_share();
        let a = share_handoff::pass(&p, 7, false, true);
        let b = share_handoff::pass(&p, 7, true, true);
        assert_eq!((a.error.as_deref(), b.error.as_deref()), (None, None));
        assert_eq!(a.turns, 8);
        assert_eq!(repeatable(&a.counts), repeatable(&b.counts));
        assert_eq!(b.spans.iter().filter(|s| s.name == "turn").count(), 8);
    }

    #[test]
    fn meta_churn_checks_pass_on_a_small_run() {
        let mut p = meta_churn::Params::durability();
        p.warmup_lookups = 64;
        let pass = meta_churn::pass(&p, 3, true, true);
        assert_eq!(pass.error, None);
        assert_eq!(pass.ops, (p.threads * p.ops_per_thread) as u64);
        assert!(pass.spans.iter().any(|s| s.name == "rename"));
    }

    #[test]
    fn acknowledged_ops_survive_a_crash() {
        meta_churn::durability(11).expect("meta_churn durability");
        share_handoff::durability(11).expect("share_handoff durability");
    }
}
