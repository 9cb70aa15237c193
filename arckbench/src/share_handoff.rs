//! share_handoff: one client alternating between two LibFS "applications"
//! on one trio kernel, with no trust group. Each turn works in the shared
//! directory and then hands it, and the root, back with `release_path`, so
//! the next turn's first op makes the other application acquire, verify
//! and rebuild its DRAM state.

use std::sync::Arc;
use std::time::Instant;

use arckfs::LibFs;
use vfs::{FileSystem, FileType, FsResult};

use crate::report::{Lat, Pass};
use crate::rng::Rng;
use crate::stack::{self, Snap};
use crate::trace::{self, TracedFs};

const DIR: &str = "/share";
/// Bytes in every pre-made file.
const FILE_BYTES: usize = 512;

#[derive(Debug, Clone)]
pub struct Params {
    /// Entries in the shared directory; they fit in the dcache.
    pub premade: usize,
    pub turns: usize,
    /// (create, stat, unlink) rounds per turn, on the turn's own file.
    pub rounds: usize,
    /// Turns run in set-up.
    pub warmup_turns: usize,
    pub dev_len: usize,
}

impl Params {
    pub fn standard() -> Params {
        Params {
            premade: 1024,
            turns: 240,
            rounds: 16,
            warmup_turns: 4,
            dev_len: 64 << 20,
        }
    }

    /// The short replay the durability check crashes after.
    pub fn durability() -> Params {
        Params {
            premade: 64,
            turns: 6,
            rounds: 4,
            warmup_turns: 2,
            dev_len: 32 << 20,
        }
    }
}

/// Seeded names: the pre-made entries, then one file per turn (warm-up
/// turns first).
fn names(p: &Params, seed: u64) -> (Vec<String>, Vec<String>) {
    let mut rng = Rng::new(seed, 1);
    let mut name = |prefix: char, i: usize| format!("{prefix}{:010x}_{i}", rng.below(1 << 40));
    let premade = (0..p.premade).map(|i| name('s', i)).collect();
    let turns = (0..p.warmup_turns + p.turns)
        .map(|i| name('t', i))
        .collect();
    (premade, turns)
}

struct Apps {
    kernel: Arc<trio::Kernel>,
    raw: [Arc<LibFs>; 2],
}

fn set_up(kernel: Arc<trio::Kernel>, premade: &[String]) -> FsResult<Apps> {
    let apps = Apps {
        raw: [stack::mount(&kernel), stack::mount(&kernel)],
        kernel,
    };
    let a = &apps.raw[0];
    a.mkdir(DIR)?;
    let data = [5u8; FILE_BYTES];
    for n in premade {
        let fd = a.create(&format!("{DIR}/{n}"))?;
        a.append(fd, &data)?;
        a.close(fd)?;
    }
    a.release_path(DIR)?;
    a.release_path("/")?;
    Ok(apps)
}

/// One turn on `fs`, which is application `raw` or its traced wrapper: the
/// rounds, then the handoff.
fn turn(fs: &dyn FileSystem, raw: &LibFs, path: &str, rounds: usize, out: &mut Pass) {
    for r in 0..rounds {
        let t0 = Instant::now();
        let c = fs.create(path).and_then(|fd| fs.close(fd));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        out.record(Lat::Write, &c, us);
        if r == 0 {
            out.first_ops.push(us);
        }
        let t0 = Instant::now();
        let s = fs.stat(path);
        out.record(Lat::Read, &s, t0.elapsed().as_secs_f64() * 1e6);
        if let Ok(md) = &s {
            if md.file_type != FileType::Regular || md.size != 0 {
                out.fail(format!("stat {path}: {md:?}"));
            }
        }
        let t0 = Instant::now();
        let u = fs.unlink(path);
        out.record(Lat::Write, &u, t0.elapsed().as_secs_f64() * 1e6);
        out.ops += 3;
    }
    let t0 = Instant::now();
    let h = trace::child("release_path", || raw.release_path(DIR))
        .and_then(|()| trace::child("release_path", || raw.release_path("/")));
    out.handoffs.push(t0.elapsed().as_secs_f64() * 1e6);
    if let Err(e) = h {
        out.failed += 1;
        out.fail(format!("handoff: {e}"));
    }
    out.turns += 1;
}

/// `readdir` of the shared directory must list exactly `want`.
fn check_dir(fs: &dyn FileSystem, mut want: Vec<String>) -> Result<(), String> {
    let mut got: Vec<String> = fs
        .readdir(DIR)
        .map_err(|e| format!("readdir {DIR}: {e}"))?
        .into_iter()
        .map(|e| e.name)
        .collect();
    got.sort();
    want.sort();
    if got != want {
        return Err(format!(
            "{DIR} lists {} names, the model {}; they differ",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// One pass; `last` adds the final-image checks (unmount, trio counters,
/// fsck).
pub fn pass(p: &Params, seed: u64, traced: bool, last: bool) -> Pass {
    let (premade, turn_names) = names(p, seed);
    let mut pass = Pass {
        traced,
        clients: 1,
        ..Pass::default()
    };

    let t0 = Instant::now();
    let apps = set_up(stack::format(p.dev_len), &premade).expect("share_handoff set-up");
    let wrapped = apps.raw.clone().map(TracedFs::new);
    let mut warm = Pass::default();
    for (i, name) in turn_names[..p.warmup_turns].iter().enumerate() {
        let path = format!("{DIR}/{name}");
        turn(
            &*apps.raw[i % 2],
            &apps.raw[i % 2],
            &path,
            p.rounds,
            &mut warm,
        );
    }
    if let Some(e) = warm.error {
        pass.fail(format!("warm-up: {e}"));
    }
    pass.setup_s = t0.elapsed().as_secs_f64();

    let tracer = traced.then(trace::Tracer::new);
    if let Some(t) = &tracer {
        t.attach();
    }
    let before = Snap::take(&apps.kernel, &[&apps.raw[0], &apps.raw[1]]);
    let start = Instant::now();
    for (i, name) in turn_names[p.warmup_turns..].iter().enumerate() {
        let which = (p.warmup_turns + i) % 2;
        let fs: &dyn FileSystem = if traced {
            &wrapped[which]
        } else {
            &*apps.raw[which]
        };
        let path = format!("{DIR}/{name}");
        trace::root("turn", || {
            turn(fs, &apps.raw[which], &path, p.rounds, &mut pass)
        });
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.counts = Snap::take(&apps.kernel, &[&apps.raw[0], &apps.raw[1]]).since(&before);
    trace::detach();
    if let Some(t) = tracer {
        pass.spans = t.take();
    }

    pass.space_amp = stack::allocated_bytes(&apps.kernel) as f64 / (p.premade * FILE_BYTES) as f64;
    let mut checked = check_dir(&*apps.raw[0], premade);
    if last {
        checked = checked
            .and_then(|()| stack::unmount_and_check(&apps.kernel, &[&apps.raw[0], &apps.raw[1]]));
    }
    if let Err(e) = checked {
        pass.fail(e);
    }
    pass
}

/// Replay a short run on a tracked device, then crash mid-turn right after
/// an acknowledged create, recover from the durable image alone, and
/// require the directory to hold exactly the pre-made names and that file.
pub fn durability(seed: u64) -> Result<(), String> {
    let p = Params::durability();
    let (premade, turn_names) = names(&p, seed);
    let apps =
        set_up(stack::format_tracked(p.dev_len), &premade).map_err(|e| format!("set-up: {e}"))?;
    let mut out = Pass::default();
    let (last, full) = turn_names.split_last().expect("at least one turn");
    for (i, name) in full.iter().enumerate() {
        let path = format!("{DIR}/{name}");
        turn(
            &*apps.raw[i % 2],
            &apps.raw[i % 2],
            &path,
            p.rounds,
            &mut out,
        );
    }
    if let Some(e) = out.error {
        return Err(e);
    }
    let fs = &apps.raw[full.len() % 2];
    let path = format!("{DIR}/{last}");
    fs.create(&path)
        .and_then(|fd| fs.close(fd))
        .map_err(|e| format!("create {path}: {e}"))?;
    let fs2 = stack::crash_and_recover(&apps.kernel)?;
    let mut want = premade;
    want.push(last.clone());
    check_dir(&*fs2, want)
}
