//! kv_mixed: one client running half gets and half puts over uniform
//! keys of a `kvstore::Db` that is pre-loaded to about 20 times its
//! memtable, so most gets reach SSTables and the puts keep flushing and
//! compacting.

use std::sync::Arc;
use std::time::Instant;

use kvstore::Db;
use vfs::FileSystem;

use crate::report::{Lat, Pass};
use crate::rng::Rng;
use crate::stack::{self, Snap};
use crate::trace::{self, TracedFs};

/// Key length: `key` and 13 digits.
const KEY_BYTES: usize = 16;

#[derive(Debug, Clone)]
pub struct Params {
    pub keys: u64,
    pub value_bytes: usize,
    /// Ops in the timed phase, half of them puts.
    pub ops: usize,
    /// Gets in set-up, after the pre-load.
    pub warmup_gets: usize,
    pub dev_len: usize,
}

impl Params {
    /// 20 000 keys of 1 KiB, about 20 times the 1 MiB memtable; 12 000
    /// puts run 12 memtable flushes and 4 compactions.
    pub fn standard() -> Params {
        Params {
            keys: 20_000,
            value_bytes: 1024,
            ops: 24_000,
            warmup_gets: 1_000,
            dev_len: 128 << 20,
        }
    }
}

fn key(k: u64) -> [u8; KEY_BYTES] {
    let mut b = [0u8; KEY_BYTES];
    b.copy_from_slice(format!("key{k:013}").as_bytes());
    b
}

/// Write the value of version `ver` of key `k` into `buf`: the key and the
/// version, then filler derived from both.
fn fill_value(buf: &mut [u8], k: u64, ver: u64) {
    buf.fill((k ^ ver) as u8);
    buf[..8].copy_from_slice(&k.to_le_bytes());
    buf[8..16].copy_from_slice(&ver.to_le_bytes());
}

enum Op {
    /// Get key `.1` (bytes `.0`), last acknowledged at version `.2`.
    Get([u8; KEY_BYTES], u64, u64),
    /// Put version `.2` of key `.1` (bytes `.0`).
    Put([u8; KEY_BYTES], u64, u64),
}

/// The pre-load order (every key once, version 1) and the timed ops.
fn plan(p: &Params, seed: u64) -> (Vec<u64>, Vec<Op>) {
    let mut rng = Rng::new(seed, 1);
    let mut order: Vec<u64> = (0..p.keys).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut version = vec![1u64; p.keys as usize];
    let ops = (0..p.ops)
        .map(|_| {
            let put = rng.below(2) == 0;
            let k = rng.below(p.keys);
            if put {
                version[k as usize] += 1;
                Op::Put(key(k), k, version[k as usize])
            } else {
                Op::Get(key(k), k, version[k as usize])
            }
        })
        .collect();
    (order, ops)
}

/// Check a get's result against the version last acknowledged.
fn check_get(r: &Option<Vec<u8>>, k: u64, ver: u64, want: &mut [u8]) -> Result<(), String> {
    fill_value(want, k, ver);
    match r {
        Some(v) if v.as_slice() == want => Ok(()),
        Some(v) if v.len() >= 16 => Err(format!(
            "get key {k}: read version {}, last acknowledged {ver}",
            u64::from_le_bytes(v[8..16].try_into().expect("8 bytes"))
        )),
        _ => Err(format!("get key {k}: wrong or missing value")),
    }
}

/// One pass; `last` adds the final-image checks (unmount, trio counters,
/// fsck).
pub fn pass(p: &Params, seed: u64, traced: bool, last: bool) -> Pass {
    let (order, ops) = plan(p, seed);
    let mut pass = Pass {
        traced,
        clients: 1,
        ..Pass::default()
    };
    let mut value = vec![0u8; p.value_bytes];
    let mut want = vec![0u8; p.value_bytes];

    let t0 = Instant::now();
    let kernel = stack::format(p.dev_len);
    let fs = stack::mount(&kernel);
    let client: Arc<dyn FileSystem> = if traced {
        Arc::new(TracedFs::new(fs.clone()))
    } else {
        fs.clone()
    };
    let db = Db::open(client, "/db").expect("open db");
    for &k in &order {
        fill_value(&mut value, k, 1);
        db.put(&key(k), &value).expect("pre-load");
    }
    let mut rng = Rng::new(seed, 2);
    for _ in 0..p.warmup_gets {
        let k = rng.below(p.keys);
        let r = db.get(&key(k)).expect("warm-up get");
        if let Err(e) = check_get(&r, k, 1, &mut want) {
            pass.fail(e);
        }
    }
    pass.setup_s = t0.elapsed().as_secs_f64();

    let tracer = traced.then(trace::Tracer::new);
    if let Some(t) = &tracer {
        t.attach();
    }
    let mut tables = db.table_count();
    let before = Snap::take(&kernel, &[&fs]);
    let start = Instant::now();
    for op in &ops {
        match op {
            Op::Get(kb, k, ver) => {
                let t0 = Instant::now();
                let r = trace::root("kvstore.get", || db.get(kb));
                pass.record(Lat::Read, &r, t0.elapsed().as_secs_f64() * 1e6);
                if let Ok(Err(e)) = r.as_ref().map(|r| check_get(r, *k, *ver, &mut want)) {
                    pass.fail(e);
                }
            }
            Op::Put(kb, k, ver) => {
                fill_value(&mut value, *k, *ver);
                let t0 = Instant::now();
                let r = trace::root("kvstore.put", || db.put(kb, &value));
                let us = t0.elapsed().as_secs_f64() * 1e6;
                pass.record(Lat::Write, &r, us);
                pass.user_bytes += (KEY_BYTES + p.value_bytes) as u64;
                if tracer.is_some() {
                    // A flush adds a table; a compaction merges them all
                    // into one right after the flush that triggered it.
                    let now = db.table_count();
                    if now != tables {
                        pass.flushes += 1;
                        pass.compactions += u64::from(now < tables);
                        pass.stalls.push(us);
                    }
                    tables = now;
                }
            }
        }
        pass.ops += 1;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.counts = Snap::take(&kernel, &[&fs]).since(&before);
    trace::detach();
    if let Some(t) = tracer {
        pass.spans = t.take();
    }

    let live = p.keys * (KEY_BYTES + p.value_bytes) as u64;
    pass.space_amp = stack::allocated_bytes(&kernel) as f64 / live as f64;
    drop(db);
    if last {
        if let Err(e) = stack::unmount_and_check(&kernel, &[&fs]) {
            pass.fail(e);
        }
    }
    pass
}
