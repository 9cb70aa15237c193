//! What one pass measured, and the metrics a run reports from its passes.
//!
//! A pass is one fresh stack: set-up, then the workload's fixed amount of
//! work (the timed phase), then the output checks. A run repeats passes on
//! the same inputs until the timed phases add up to `--seconds`.
//! End-to-end metrics are medians over the untraced passes; per-layer
//! metrics come from the traced passes.

use std::collections::BTreeMap;

use crate::stack::Snap;
use crate::trace::Span;

/// A latency (µs) recorded for a failed op, so it misses every limit.
pub const FAILED: f64 = f64::INFINITY;

#[derive(Debug, Default)]
pub struct Pass {
    pub traced: bool,
    pub setup_s: f64,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Client threads issuing ops.
    pub clients: usize,
    pub ops: u64,
    pub failed: u64,
    /// Lookup latencies, µs.
    pub reads: Vec<f64>,
    /// Change latencies, µs.
    pub writes: Vec<f64>,
    /// share_handoff: the pair of `release_path` calls ending each turn.
    pub handoffs: Vec<f64>,
    /// share_handoff: the first op of each turn, which re-acquires.
    pub first_ops: Vec<f64>,
    pub turns: u64,
    /// User bytes the timed phase wrote.
    pub user_bytes: u64,
    pub space_amp: f64,
    /// Counter growth over the timed phase.
    pub counts: Snap,
    /// kv_mixed, traced passes: memtable flushes and compactions, and the
    /// latencies of the puts that ran them.
    pub flushes: u64,
    pub compactions: u64,
    pub stalls: Vec<f64>,
    pub spans: Vec<Span>,
    /// The first failed op or output check.
    pub error: Option<String>,
}

impl Pass {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Record an op's outcome into `lat`.
    pub fn record<T, E: std::fmt::Display>(&mut self, lat: Lat, r: &Result<T, E>, us: f64) {
        let v = match r {
            Ok(_) => us,
            Err(e) => {
                self.failed += 1;
                self.fail(format!("op failed: {e}"));
                FAILED
            }
        };
        match lat {
            Lat::Read => self.reads.push(v),
            Lat::Write => self.writes.push(v),
        }
    }

    /// Keep the first failed check.
    pub fn fail(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(msg);
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Lat {
    Read,
    Write,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples,
    }
}

/// Nearest-rank percentile of unsorted `v` (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median over `passes` of `f`.
fn med(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

fn count(passes: &[&Pass], f: impl Fn(&Pass) -> usize) -> u64 {
    passes.iter().map(|p| f(p) as u64).sum()
}

/// The end-to-end metrics, from untraced passes.
pub fn end_to_end(passes: &[&Pass], peak_rss_mib: f64) -> Vec<Metric> {
    let n = passes.len() as u64;
    vec![
        metric(
            "ops_per_s",
            "1/s",
            med(passes, Pass::ops_per_s),
            count(passes, |p| p.ops as usize),
        ),
        metric(
            "read_p50_us",
            "us",
            med(passes, |p| percentile(&p.reads, 0.5)),
            count(passes, |p| p.reads.len()),
        ),
        metric(
            "write_p50_us",
            "us",
            med(passes, |p| percentile(&p.writes, 0.5)),
            count(passes, |p| p.writes.len()),
        ),
        metric(
            "write_p99_us",
            "us",
            med(passes, |p| percentile(&p.writes, 0.99)),
            count(passes, |p| p.writes.len()),
        ),
        metric("space_amp", "ratio", med(passes, |p| p.space_amp), n),
        metric("setup_s", "s", med(passes, |p| p.setup_s), n),
        metric("peak_rss_mib", "MiB", peak_rss_mib, 1),
    ]
}

/// End-to-end figures printed for reading but left out of the result
/// line, which holds only metrics that are steady on every workload:
/// - `read_p99_us` swings by up to a quarter between runs of
///   share_handoff. About 1.4 % of its stats take 10 to 20 µs instead of
///   about 1.5, once every 63 or so, in step with the LibFS's RCU domain
///   collecting every 64 deferred frees. The 99th percentile sits on
///   that cliff.
/// - The handoff latencies exist on share_handoff alone.
/// - The error rate is carried by the result's `attempted` and `failed`.
pub fn informational(passes: &[&Pass]) -> Vec<Metric> {
    let handoffs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.handoffs.iter().copied())
        .collect();
    let ops = count(passes, |p| p.ops as usize);
    let failed = count(passes, |p| p.failed as usize);
    vec![
        metric(
            "read_p99_us",
            "us",
            med(passes, |p| percentile(&p.reads, 0.99)),
            count(passes, |p| p.reads.len()),
        ),
        metric(
            "handoff_p50_us",
            "us",
            med(passes, |p| percentile(&p.handoffs, 0.5)),
            handoffs.len() as u64,
        ),
        metric(
            "handoff_p99_us",
            "us",
            med(passes, |p| percentile(&p.handoffs, 0.99)),
            handoffs.len() as u64,
        ),
        metric("error_rate", "ratio", ratio(failed as f64, ops as f64), ops),
    ]
}

/// The `FileSystem` calls reported per op; the `*_at` forms count under
/// their path-based op.
const VFS_OPS: [&str; 10] = [
    "stat",
    "open",
    "read_at",
    "write_at",
    "write_vectored_at",
    "append",
    "create",
    "close",
    "unlink",
    "rename",
];

fn vfs_op(span: &str) -> &str {
    match span {
        "open_at" => "open",
        "stat_at" => "stat",
        "unlink_at" => "unlink",
        s => s,
    }
}

/// Union of `children`'s intervals (sorted by start), in ns.
fn covered_ns(children: &[&Span]) -> u64 {
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for c in children {
        match cur {
            Some((s, e)) if c.start_ns <= e => cur = Some((s, e.max(c.end_ns))),
            _ => {
                if let Some((s, e)) = cur {
                    total += e - s;
                }
                cur = Some((c.start_ns, c.end_ns));
            }
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The per-layer metrics: spans and counters of the traced passes, plus
/// the handoff latencies and the tracing overhead against the untraced
/// passes of the same run.
pub fn per_layer(untraced: &[&Pass], traced: &[&Pass]) -> Vec<Metric> {
    let mut out = Vec::new();
    let npass = traced.len().max(1) as f64;
    let ops: u64 = traced.iter().map(|p| p.ops).sum();
    let turns: u64 = traced.iter().map(|p| p.turns).sum();
    let mut c = Snap::default();
    for p in traced {
        c.add(&p.counts);
    }
    let per_op = |x: u64| ratio(x as f64, ops as f64);

    // vfs: every FileSystem call, by op.
    let mut by_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let spans = || traced.iter().flat_map(|p| p.spans.iter());
    for s in spans().filter(|s| s.parent != 0) {
        by_op
            .entry(vfs_op(s.name))
            .or_default()
            .push(s.dur_ns() as f64 / 1e3);
    }
    for op in VFS_OPS {
        let d = by_op.get(op).map(Vec::as_slice).unwrap_or(&[]);
        let n = d.len() as u64;
        out.push(metric(
            format!("vfs.{op}.calls"),
            "count",
            n as f64 / npass,
            n,
        ));
        out.push(metric(
            format!("vfs.{op}.busy_ms"),
            "ms",
            d.iter().fold(0.0, |a, b| a + b) / 1e3 / npass,
            n,
        ));
        out.push(metric(format!("vfs.{op}.p50_us"), "us", median(d), n));
    }

    // arckfs: LibFS counters.
    let f = &c.fs;
    let lookups = f.dcache_hits + f.dcache_misses;
    out.push(metric(
        "arckfs.dcache_hit_ratio",
        "ratio",
        ratio(f.dcache_hits as f64, lookups as f64),
        lookups,
    ));
    for (name, v) in [
        ("dcache_invalidations", f.dcache_invalidations),
        ("pool_refills", f.pool_refills),
        ("pool_releases", f.pool_releases),
        ("alloc_steals", f.alloc_steals),
        ("shared_lock_acqs", f.shared_lock_acqs),
        ("range_lock_acqs", f.range_lock_acqs),
        ("extent_inserts", f.extent_inserts),
        ("cow_tail_copies", f.cow_tail_copies),
    ] {
        out.push(metric(
            format!("arckfs.{name}_per_op"),
            "count/op",
            per_op(v),
            ops,
        ));
    }

    // trio: kernel counters and the timed handoffs.
    let k = &c.kernel;
    let releases: Vec<f64> = spans()
        .filter(|s| s.name == "release_path")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    let first: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.first_ops.iter().copied())
        .collect();
    let handoffs: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.handoffs.iter().copied())
        .collect();
    out.extend([
        metric("trio.syscalls_per_op", "count/op", per_op(k.syscalls), ops),
        metric(
            "trio.acquires_per_turn",
            "count/turn",
            ratio(k.acquires as f64, turns as f64),
            turns,
        ),
        metric(
            "trio.verifications_per_turn",
            "count/turn",
            ratio(k.verifications as f64, turns as f64),
            turns,
        ),
        metric(
            "trio.release_p50_us",
            "us",
            median(&releases),
            releases.len() as u64,
        ),
        metric(
            "trio.first_op_after_acquire_p50_us",
            "us",
            median(&first),
            first.len() as u64,
        ),
        metric(
            "trio.verify_failures",
            "count",
            k.verify_failures as f64,
            ops,
        ),
        metric("trio.rollbacks", "count", k.rollbacks as f64, ops),
        metric(
            "trio.alloc_lock_acqs_per_op",
            "count/op",
            per_op(c.alloc_lock_acqs),
            ops,
        ),
        metric(
            "trio.handoff_p50_us",
            "us",
            percentile(&handoffs, 0.5),
            handoffs.len() as u64,
        ),
        metric(
            "trio.handoff_p99_us",
            "us",
            percentile(&handoffs, 0.99),
            handoffs.len() as u64,
        ),
    ]);

    // pmem: device counters, and the device time they price to.
    let pm = &c.pm;
    let user_bytes: u64 = traced.iter().map(|p| p.user_bytes).sum();
    let client_ns: f64 = traced
        .iter()
        .map(|p| p.wall_s * 1e9 * p.clients as f64)
        .sum();
    let injected = c.injected_ns();
    out.extend([
        metric("pmem.clwb_per_op", "count/op", per_op(pm.clwb), ops),
        metric("pmem.sfence_per_op", "count/op", per_op(pm.sfences), ops),
        metric("pmem.ntstores_per_op", "count/op", per_op(pm.ntstores), ops),
        metric(
            "pmem.bytes_written_per_op",
            "B/op",
            per_op(pm.bytes_written),
            ops,
        ),
        metric("pmem.bytes_read_per_op", "B/op", per_op(pm.bytes_read), ops),
        metric(
            "pmem.write_amp",
            "ratio",
            ratio(pm.bytes_written as f64, user_bytes as f64),
            ops,
        ),
        metric(
            "pmem.injected_us_per_op",
            "us/op",
            ratio(injected / 1e3, ops as f64),
            ops,
        ),
        metric(
            "pmem.injected_share",
            "ratio",
            ratio(injected, client_ns),
            ops,
        ),
    ]);

    // kvstore: Db::get and Db::put roots, less the FileSystem calls inside.
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut self_us = |root: &str| -> (f64, u64, u64) {
        let (mut total, mut n, mut reads) = (0.0, 0u64, 0u64);
        for r in spans().filter(|s| s.parent == 0 && s.name == root) {
            let kids = children.remove(&r.id).unwrap_or_default();
            reads += kids.iter().filter(|k| k.name == "read_at").count() as u64;
            total += (r.dur_ns() - covered_ns(&kids)) as f64 / 1e3;
            n += 1;
        }
        (ratio(total, n as f64), n, reads)
    };
    let (get_self, gets, get_reads) = self_us("kvstore.get");
    let (put_self, puts, _) = self_us("kvstore.put");
    let stalls: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.stalls.iter().copied())
        .collect();
    out.extend([
        metric("kvstore.get_self_us", "us", get_self, gets),
        metric("kvstore.put_self_us", "us", put_self, puts),
        metric(
            "kvstore.read_calls_per_get",
            "count/op",
            ratio(get_reads as f64, gets as f64),
            gets,
        ),
        metric(
            "kvstore.flushes",
            "count",
            traced.iter().map(|p| p.flushes).sum::<u64>() as f64 / npass,
            traced.iter().map(|p| p.flushes).sum(),
        ),
        metric(
            "kvstore.compactions",
            "count",
            traced.iter().map(|p| p.compactions).sum::<u64>() as f64 / npass,
            traced.iter().map(|p| p.compactions).sum(),
        ),
        metric(
            "kvstore.stall_put_p50_us",
            "us",
            median(&stalls),
            stalls.len() as u64,
        ),
    ]);

    out.push(metric(
        "trace.overhead",
        "ratio",
        1.0 - ratio(med(traced, Pass::ops_per_s), med(untraced, Pass::ops_per_s)),
        traced.len() as u64,
    ));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no infinity; a latency percentile that lands on a
        // failed op reads as the largest finite number.
        format!("{:?}", f64::MAX)
    }
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn covered_time_merges_overlaps() {
        let s = |start_ns, end_ns| Span {
            name: "x",
            req: 1,
            id: 2,
            parent: 1,
            start_ns,
            end_ns,
        };
        let (a, b, c) = (s(0, 10), s(5, 20), s(30, 40));
        assert_eq!(covered_ns(&[&a, &b, &c]), 30);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let m = [metric("ops_per_s", "1/s", 1.5, 3)];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"ops_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}"
        );
    }
}
