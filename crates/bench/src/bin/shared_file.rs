//! Shared-file data-path sweep over the range-locked extent path (not a
//! paper figure).
//!
//! Drives an FxMark-DWOM-shaped workload — 8 threads, disjoint 4 KiB
//! overwrites, one shared file — over ArckFS mounted on an Optane-latency
//! device, plus an fio-style sequential shared-file row and FxMark's DWAL
//! row (private-file appends), with the per-op range-lock accounting from
//! [`vfs::FsStats`]. Asserts that every DWOM write crosses the interval
//! table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arckfs::{Config, LibFs};
use bench::record_json;
use fxmark::data::{run_data_workload, DataWorkload};
use pmem::{LatencyModel, PmemDevice};
use vfs::{FileSystem, FsExt, OpenFlags};

const BLOCK: usize = 4096;
const FILE_SIZE: u64 = 4 << 20;
const THREADS: usize = 8;
const DEV: usize = 64 << 20;

fn iters() -> u64 {
    std::env::var("BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

fn mount() -> Arc<LibFs> {
    let device = PmemDevice::with_latency(DEV, LatencyModel::optane());
    let (_k, fs) = arckfs::new_fs_on(device, Config::arckfs_plus()).expect("mount");
    fs
}

/// Pre-size the one shared file every writer targets.
fn setup(fs: &LibFs) {
    fs.mkdir_all("/shared").expect("mkdir");
    let block = vec![0x6Du8; BLOCK];
    let fd = fs
        .open("/shared/file", OpenFlags::rw().create())
        .expect("open");
    for off in (0..FILE_SIZE).step_by(BLOCK) {
        fs.write_at(fd, &block, off).expect("prefill");
    }
    fs.close(fd).expect("close");
}

struct Row {
    label: &'static str,
    threads: usize,
    ops_per_sec: f64,
    t1_us: f64,
    range_lock_acqs_per_op: f64,
}

/// One DWOM-shaped cell: `threads` writers, each overwriting its own
/// disjoint stripe of the shared file, `n` ops per thread. `seq` picks
/// the fio-style sequential pattern instead of FxMark's random-in-stripe.
fn run_cell(label: &'static str, threads: usize, n: u64, seq: bool) -> Row {
    let fs = mount();
    setup(&fs);
    fs.reset_stats();
    let total = Arc::new(AtomicU64::new(0));
    let blocks = FILE_SIZE / BLOCK as u64;
    let stripe = (blocks / threads as u64).max(1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let fs = Arc::clone(&fs);
            let total = Arc::clone(&total);
            s.spawn(move || {
                let fd = fs
                    .open("/shared/file", OpenFlags::rw())
                    .expect("open shared");
                let buf = vec![t as u8 + 1; BLOCK];
                let base = (t * stripe) % blocks;
                // Deterministic in-stripe walk (an LCG stands in for
                // FxMark's rng: the object of measurement is the locking,
                // not the distribution).
                let mut x = 0x9e37u64.wrapping_add(t);
                for i in 0..n {
                    let b = if seq {
                        base + i % stripe
                    } else {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        base + (x >> 33) % stripe
                    };
                    fs.write_at(fd, &buf, b * BLOCK as u64).expect("write");
                }
                fs.close(fd).expect("close");
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();
    let stats = fs.stats();
    let ops = total.load(Ordering::Relaxed).max(1);

    // Single-thread latency on a fresh mount.
    let fs1 = mount();
    setup(&fs1);
    let fd = fs1.open("/shared/file", OpenFlags::rw()).expect("open");
    let buf = vec![0x42u8; BLOCK];
    let t1_start = Instant::now();
    for i in 0..n {
        fs1.write_at(fd, &buf, (i % blocks) * BLOCK as u64)
            .expect("write");
    }
    let t1_us = t1_start.elapsed().as_secs_f64() * 1e6 / n as f64;
    fs1.close(fd).expect("close");

    Row {
        label,
        threads,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
        t1_us,
        range_lock_acqs_per_op: stats.range_lock_acqs as f64 / ops as f64,
    }
}

fn main() {
    obs::enable();
    let n = iters();
    println!("# Shared-file data-path sweep ({n} ops/thread x {BLOCK} B, one shared file)");
    println!(
        "\n{:>14} {:>7} {:>12} {:>9} {:>13}",
        "row", "threads", "ops/s", "t1 µs", "rangelocks/op"
    );

    let mut rows = Vec::new();
    for &(label, seq) in &[("DWOM", false), ("fio-seq-shared", true)] {
        let row = run_cell(label, THREADS, n, seq);
        println!(
            "{:>14} {:>7} {:>12.0} {:>9.2} {:>13.3}",
            row.label, row.threads, row.ops_per_sec, row.t1_us, row.range_lock_acqs_per_op,
        );
        record_json(
            "shared_file",
            serde_json::json!({
                "row": row.label, "threads": row.threads,
                "ops_per_sec": row.ops_per_sec, "t1_us": row.t1_us,
                "range_lock_acqs_per_op": row.range_lock_acqs_per_op,
            }),
        );
        rows.push(row);
    }

    // FxMark's DWAL row (private-file appends) for context.
    let r = run_data_workload(mount(), DataWorkload::DWAL, 2, Duration::from_millis(120))
        .expect("DWAL");
    let dwal_ops_per_sec = r.ops as f64 / r.elapsed.as_secs_f64();
    println!(
        "{:>14} {:>7} {:>12.0} {:>9} {:>13}",
        "DWAL", r.threads, dwal_ops_per_sec, "-", "-",
    );
    record_json(
        "shared_file",
        serde_json::json!({
            "row": "DWAL", "threads": r.threads, "ops_per_sec": dwal_ops_per_sec,
        }),
    );

    let dwom = &rows[0];
    let shared_block = serde_json::json!({
        "block": BLOCK, "threads": THREADS,
        "dwom_ops_per_sec": dwom.ops_per_sec, "dwom_t1_us": dwom.t1_us,
        "range_lock_acqs_per_op": dwom.range_lock_acqs_per_op,
        "dwal_ops_per_sec": dwal_ops_per_sec,
    });
    let _ = obs::report().write_json_ext("shared_file", &[("shared_file", shared_block)]);

    assert!(
        dwom.range_lock_acqs_per_op >= 1.0,
        "every ranged write must cross the interval table, got {}/op",
        dwom.range_lock_acqs_per_op
    );
}
