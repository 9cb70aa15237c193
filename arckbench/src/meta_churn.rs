//! meta_churn: a closed loop of two client threads on one LibFS, half
//! looking up pre-made files and half changing names they own, all in the
//! same shared directories.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use arckfs::LibFs;
use vfs::{FileSystem, FileType, FsResult, OpenFlags};

use crate::report::{Lat, Pass};
use crate::rng::Rng;
use crate::stack::{self, Snap};
use crate::trace::{self, TracedFs};

/// Bytes in every file.
const FILE_BYTES: usize = 512;

#[derive(Debug, Clone)]
pub struct Params {
    pub dirs: usize,
    /// Files made in set-up for the lookups; never changed afterwards.
    pub premade: usize,
    /// Files each thread owns when the timed phase starts.
    pub owned: usize,
    pub threads: usize,
    pub ops_per_thread: usize,
    /// Lookups of random pre-made files in set-up, filling the caches.
    pub warmup_lookups: usize,
    pub dev_len: usize,
}

impl Params {
    /// 50 000 names across 16 directories: more than the 4 096 dcache
    /// slots, about 3 000 entries per 128-bucket directory index.
    pub fn standard() -> Params {
        Params {
            dirs: 16,
            premade: 50_000,
            owned: 256,
            threads: 2,
            ops_per_thread: 60_000,
            warmup_lookups: 8_192,
            dev_len: 768 << 20,
        }
    }

    /// The short replay the durability check crashes after.
    pub fn durability() -> Params {
        Params {
            dirs: 4,
            premade: 256,
            owned: 16,
            threads: 2,
            ops_per_thread: 400,
            warmup_lookups: 0,
            dev_len: 64 << 20,
        }
    }
}

fn dir(d: usize) -> String {
    format!("/d{d:02}")
}

fn premade_path(p: &Params, i: usize) -> String {
    format!("{}/p{i}", dir(i % p.dirs))
}

fn owned_name(t: usize, id: u64) -> String {
    format!("o{t}_{id}")
}

/// A pre-made file's contents: its index at both ends.
fn content(i: u64) -> [u8; FILE_BYTES] {
    let mut b = [i as u8; FILE_BYTES];
    b[..8].copy_from_slice(&i.to_le_bytes());
    b[FILE_BYTES - 8..].copy_from_slice(&(!i).to_le_bytes());
    b
}

enum Op {
    Stat(String),
    /// open + 512 B read_at + close of pre-made file `.1`.
    Read(String, u64),
    /// create + 512 B append + close.
    Create(String),
    Unlink(String),
    Rename(String, String),
}

/// One thread's inputs: the names it owns before the timed phase, its ops,
/// and the names it owns after them.
struct Plan {
    initial: Vec<(usize, u64)>,
    ops: Vec<Op>,
    last: Vec<(usize, u64)>,
}

fn plan(p: &Params, seed: u64, t: usize) -> Plan {
    let mut rng = Rng::new(seed, 1 + t as u64);
    let path = |d: usize, id: u64| format!("{}/{}", dir(d), owned_name(t, id));
    let mut next_id = 0u64;
    let mut live: Vec<(usize, u64)> = Vec::new();
    for _ in 0..p.owned {
        live.push((rng.below(p.dirs as u64) as usize, next_id));
        next_id += 1;
    }
    let initial = live.clone();
    let mut ops = Vec::with_capacity(p.ops_per_thread);
    for _ in 0..p.ops_per_thread {
        let pick = rng.below(100);
        let target = rng.below(p.premade as u64) as usize;
        // An unlink or rename with nothing to act on creates instead.
        let op = if pick < 25 {
            Op::Stat(premade_path(p, target))
        } else if pick < 50 {
            Op::Read(premade_path(p, target), target as u64)
        } else if pick < 70 || live.is_empty() {
            let d = rng.below(p.dirs as u64) as usize;
            live.push((d, next_id));
            next_id += 1;
            Op::Create(path(d, next_id - 1))
        } else if pick < 90 {
            let (d, id) = live.swap_remove(rng.below(live.len() as u64) as usize);
            Op::Unlink(path(d, id))
        } else {
            let i = rng.below(live.len() as u64) as usize;
            let (d, id) = live[i];
            let to = (d + 1 + rng.below(p.dirs as u64 - 1) as usize) % p.dirs;
            live[i] = (to, next_id);
            next_id += 1;
            Op::Rename(path(d, id), path(to, next_id - 1))
        };
        ops.push(op);
    }
    Plan {
        initial,
        ops,
        last: live,
    }
}

/// Format-independent set-up: directories, pre-made files, every
/// thread's initial names, then warm-up lookups.
fn populate(fs: &LibFs, p: &Params, plans: &[Plan], seed: u64) -> FsResult<()> {
    for d in 0..p.dirs {
        fs.mkdir(&dir(d))?;
    }
    let make = |path: &str, data: &[u8]| -> FsResult<()> {
        let fd = fs.create(path)?;
        fs.append(fd, data)?;
        fs.close(fd)
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..p.threads)
            .map(|t| {
                s.spawn(move || -> FsResult<()> {
                    for i in (t..p.premade).step_by(p.threads) {
                        make(&premade_path(p, i), &content(i as u64))?;
                    }
                    for &(d, id) in &plans[t].initial {
                        make(
                            &format!("{}/{}", dir(d), owned_name(t, id)),
                            &[7; FILE_BYTES],
                        )?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("set-up thread panicked"))
    })?;
    let mut rng = Rng::new(seed, 0);
    for _ in 0..p.warmup_lookups {
        fs.stat(&premade_path(p, rng.below(p.premade as u64) as usize))?;
    }
    Ok(())
}

/// Run one thread's ops, timing each.
fn run_ops(fs: &dyn FileSystem, ops: &[Op], out: &mut Pass) {
    let mut buf = [0u8; FILE_BYTES];
    let data = [7u8; FILE_BYTES];
    for op in ops {
        let t0 = Instant::now();
        match op {
            Op::Stat(path) => {
                let r = trace::root("op.stat", || fs.stat(path));
                out.record(Lat::Read, &r, t0.elapsed().as_secs_f64() * 1e6);
                if let Ok(md) = r {
                    if md.file_type != FileType::Regular || md.size != FILE_BYTES as u64 {
                        out.fail(format!("stat {path}: {md:?}"));
                    }
                }
            }
            Op::Read(path, i) => {
                let r = trace::root("op.read", || -> FsResult<usize> {
                    let fd = fs.open(path, OpenFlags::read())?;
                    let n = fs.read_at(fd, &mut buf, 0)?;
                    fs.close(fd)?;
                    Ok(n)
                });
                out.record(Lat::Read, &r, t0.elapsed().as_secs_f64() * 1e6);
                if r.is_ok_and(|n| n != FILE_BYTES || buf != content(*i)) {
                    out.fail(format!("read {path}: wrong contents"));
                }
            }
            Op::Create(path) => {
                let r = trace::root("op.create", || -> FsResult<()> {
                    let fd = fs.create(path)?;
                    fs.append(fd, &data)?;
                    fs.close(fd)
                });
                out.record(Lat::Write, &r, t0.elapsed().as_secs_f64() * 1e6);
                out.user_bytes += FILE_BYTES as u64;
            }
            Op::Unlink(path) => {
                let r = trace::root("op.unlink", || fs.unlink(path));
                out.record(Lat::Write, &r, t0.elapsed().as_secs_f64() * 1e6);
            }
            Op::Rename(from, to) => {
                let r = trace::root("op.rename", || fs.rename(from, to));
                out.record(Lat::Write, &r, t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        out.ops += 1;
    }
}

/// Run every thread's ops in a closed loop; returns the wall time.
fn run_clients(
    fs: &dyn FileSystem,
    plans: &[Plan],
    pass: &mut Pass,
    tracer: Option<&Arc<trace::Tracer>>,
) -> f64 {
    let start = Barrier::new(plans.len() + 1);
    let (wall, results) = std::thread::scope(|s| {
        let workers: Vec<_> = plans
            .iter()
            .map(|plan| {
                let start = &start;
                s.spawn(move || {
                    if let Some(t) = tracer {
                        t.attach();
                    }
                    let mut out = Pass::default();
                    start.wait();
                    run_ops(fs, &plan.ops, &mut out);
                    trace::detach();
                    out
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let results: Vec<Pass> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (t0.elapsed().as_secs_f64(), results)
    });
    for r in results {
        pass.ops += r.ops;
        pass.failed += r.failed;
        pass.reads.extend(r.reads);
        pass.writes.extend(r.writes);
        pass.user_bytes += r.user_bytes;
        if let Some(e) = r.error {
            pass.fail(e);
        }
    }
    wall
}

/// Every directory's `readdir` must list exactly the model's live names.
fn check_dirs(fs: &dyn FileSystem, p: &Params, plans: &[Plan]) -> Result<(), String> {
    let mut want: Vec<Vec<String>> = vec![Vec::new(); p.dirs];
    for i in 0..p.premade {
        want[i % p.dirs].push(format!("p{i}"));
    }
    for (t, plan) in plans.iter().enumerate() {
        for &(d, id) in &plan.last {
            want[d].push(owned_name(t, id));
        }
    }
    for (d, want) in want.iter_mut().enumerate() {
        want.sort();
        let mut got: Vec<String> = fs
            .readdir(&dir(d))
            .map_err(|e| format!("readdir {}: {e}", dir(d)))?
            .into_iter()
            .map(|e| e.name)
            .collect();
        got.sort();
        if &got != want {
            let missing = want
                .iter()
                .filter(|n| got.binary_search(n).is_err())
                .count();
            let extra = got
                .iter()
                .filter(|n| want.binary_search(n).is_err())
                .count();
            return Err(format!(
                "{}: {missing} acknowledged names missing, {extra} unexpected",
                dir(d)
            ));
        }
    }
    Ok(())
}

/// One pass; `last` adds the final-image checks (unmount, trio counters,
/// fsck).
pub fn pass(p: &Params, seed: u64, traced: bool, last: bool) -> Pass {
    let plans: Vec<Plan> = (0..p.threads).map(|t| plan(p, seed, t)).collect();
    let mut pass = Pass {
        traced,
        clients: p.threads,
        ..Pass::default()
    };

    let t0 = Instant::now();
    let kernel = stack::format(p.dev_len);
    let fs = stack::mount(&kernel);
    populate(&fs, p, &plans, seed).expect("meta_churn set-up");
    pass.setup_s = t0.elapsed().as_secs_f64();

    let tracer = traced.then(trace::Tracer::new);
    let traced_fs = TracedFs::new(fs.clone());
    let client: &dyn FileSystem = if traced { &traced_fs } else { &*fs };
    let before = Snap::take(&kernel, &[&fs]);
    pass.wall_s = run_clients(client, &plans, &mut pass, tracer.as_ref());
    pass.counts = Snap::take(&kernel, &[&fs]).since(&before);
    if let Some(t) = tracer {
        pass.spans = t.take();
    }

    let live: usize = p.premade + plans.iter().map(|pl| pl.last.len()).sum::<usize>();
    pass.space_amp = stack::allocated_bytes(&kernel) as f64 / (live * FILE_BYTES) as f64;
    let mut checked = check_dirs(&*fs, p, &plans);
    if last {
        checked = checked.and_then(|()| stack::unmount_and_check(&kernel, &[&fs]));
    }
    if let Err(e) = checked {
        pass.fail(e);
    }
    pass
}

/// Replay a short run on a tracked device, crash right after the last
/// acknowledged op, recover from the durable image alone, and require
/// every acknowledged create, rename and unlink to show.
pub fn durability(seed: u64) -> Result<(), String> {
    let p = Params::durability();
    let plans: Vec<Plan> = (0..p.threads).map(|t| plan(&p, seed, t)).collect();
    let kernel = stack::format_tracked(p.dev_len);
    let fs = stack::mount(&kernel);
    populate(&fs, &p, &plans, seed).map_err(|e| format!("set-up: {e}"))?;
    let mut pass = Pass::default();
    run_clients(&*fs, &plans, &mut pass, None);
    if let Some(e) = pass.error {
        return Err(e);
    }
    let fs2 = stack::crash_and_recover(&kernel)?;
    check_dirs(&*fs2, &p, &plans)
}
