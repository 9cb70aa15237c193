//! The system under test: the default ArckFS+ stack, and the counters the
//! per-layer metrics are read from.

use std::sync::Arc;
use std::time::Duration;

use arckfs::{Config, LibFs};
use pmem::{LatencyModel, PmemDevice, StatsSnapshot};
use trio::{Geometry, Kernel, KernelConfig};
use vfs::{FileSystem, FsStats};

/// Injected cost of one kernel crossing.
pub const SYSCALL_COST: Duration = Duration::from_nanos(400);

/// The emulated device's latency model.
pub fn latency() -> LatencyModel {
    LatencyModel::optane()
}

/// The LibFS configuration every workload mounts.
pub fn libfs_config() -> Config {
    Config::arckfs_plus()
}

/// The trusted kernel's configuration.
pub fn kernel_config() -> KernelConfig {
    KernelConfig::arckfs_plus().with_syscall_cost(SYSCALL_COST)
}

/// Format a fresh kernel on an Optane-latency device of `len` bytes.
pub fn format(len: usize) -> Arc<Kernel> {
    let device = PmemDevice::with_latency(len, latency());
    Kernel::format(device, Geometry::for_device(len), kernel_config()).expect("format")
}

/// Format a fresh kernel on a tracked device (no injected latency), whose
/// durable image the durability checks recover from.
pub fn format_tracked(len: usize) -> Arc<Kernel> {
    let device = PmemDevice::new_tracked(len);
    Kernel::format(device, Geometry::for_device(len), kernel_config()).expect("format tracked")
}

/// Mount one LibFS "application" on `kernel`.
pub fn mount(kernel: &Arc<Kernel>) -> Arc<LibFs> {
    LibFs::mount(kernel.clone(), libfs_config(), 0).expect("mount")
}

/// Rebuild a kernel from `kernel`'s durable image alone, as after a crash
/// at this instant, and mount a LibFS on it. The crash image must pass
/// `trio::fsck` (benign residue allowed).
pub fn crash_and_recover(kernel: &Kernel) -> Result<Arc<LibFs>, String> {
    let image = kernel
        .device()
        .persistent_image()
        .map_err(|e| format!("persistent image: {e}"))?;
    let device = PmemDevice::from_image(&image);
    let report = trio::fsck::fsck(&device)?;
    if !report.is_consistent() {
        return Err(format!("fsck of the crash image: {:?}", report.fatal()));
    }
    let recovered =
        Kernel::recover(device, kernel_config()).map_err(|e| format!("recover: {e}"))?;
    LibFs::mount(recovered, libfs_config(), 0).map_err(|e| format!("mount: {e}"))
}

/// Unmount every LibFS, which releases and verifies all they own; then
/// require that the kernel saw no failed verification or rollback and
/// that the final image passes `trio::fsck`.
pub fn unmount_and_check(kernel: &Kernel, apps: &[&LibFs]) -> Result<(), String> {
    for app in apps {
        app.unmount().map_err(|e| format!("unmount: {e}"))?;
    }
    let ks = kernel.stats().snapshot();
    if ks.verify_failures != 0 || ks.rollbacks != 0 {
        return Err(format!(
            "trio saw {} verify failures and {} rollbacks",
            ks.verify_failures, ks.rollbacks
        ));
    }
    let report = trio::fsck::fsck(kernel.device())?;
    if !report.is_consistent() {
        return Err(format!("fsck of the final image: {:?}", report.fatal()));
    }
    Ok(())
}

/// Allocated data pages times the page size.
pub fn allocated_bytes(kernel: &Kernel) -> u64 {
    kernel.allocator().allocated_count() * pmem::PAGE_SIZE as u64
}

/// One reading of every counter the per-layer metrics use.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    pub pm: StatsSnapshot,
    pub kernel: trio::controller::KernelStatsSnapshot,
    /// LibFS counters, summed over the workload's LibFSes.
    pub fs: FsStats,
    pub alloc_lock_acqs: u64,
}

impl Snap {
    pub fn take(kernel: &Kernel, apps: &[&LibFs]) -> Snap {
        let mut fs = FsStats::default();
        for app in apps {
            let s = app.stats();
            fs.dcache_hits += s.dcache_hits;
            fs.dcache_misses += s.dcache_misses;
            fs.dcache_invalidations += s.dcache_invalidations;
            fs.pool_refills += s.pool_refills;
            fs.pool_releases += s.pool_releases;
            fs.alloc_steals += s.alloc_steals;
            fs.shared_lock_acqs += s.shared_lock_acqs;
            fs.range_lock_acqs += s.range_lock_acqs;
            fs.extent_inserts += s.extent_inserts;
            fs.cow_tail_copies += s.cow_tail_copies;
        }
        Snap {
            pm: kernel.device().stats().snapshot(),
            kernel: kernel.stats().snapshot(),
            fs,
            alloc_lock_acqs: kernel.allocator().stats().lock_acqs(),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Snap) -> Snap {
        let (a, b) = (&self.fs, &earlier.fs);
        let (k, j) = (&self.kernel, &earlier.kernel);
        Snap {
            pm: self.pm.delta(&earlier.pm),
            kernel: trio::controller::KernelStatsSnapshot {
                syscalls: k.syscalls - j.syscalls,
                acquires: k.acquires - j.acquires,
                releases: k.releases - j.releases,
                commits: k.commits - j.commits,
                forced_releases: k.forced_releases - j.forced_releases,
                verifications: k.verifications - j.verifications,
                verify_failures: k.verify_failures - j.verify_failures,
                rollbacks: k.rollbacks - j.rollbacks,
                trust_skips: k.trust_skips - j.trust_skips,
            },
            fs: FsStats {
                dcache_hits: a.dcache_hits - b.dcache_hits,
                dcache_misses: a.dcache_misses - b.dcache_misses,
                dcache_invalidations: a.dcache_invalidations - b.dcache_invalidations,
                pool_refills: a.pool_refills - b.pool_refills,
                pool_releases: a.pool_releases - b.pool_releases,
                alloc_steals: a.alloc_steals - b.alloc_steals,
                shared_lock_acqs: a.shared_lock_acqs - b.shared_lock_acqs,
                range_lock_acqs: a.range_lock_acqs - b.range_lock_acqs,
                extent_inserts: a.extent_inserts - b.extent_inserts,
                cow_tail_copies: a.cow_tail_copies - b.cow_tail_copies,
                ..FsStats::default()
            },
            alloc_lock_acqs: self.alloc_lock_acqs - earlier.alloc_lock_acqs,
        }
    }

    /// Sum of two deltas.
    pub fn add(&mut self, other: &Snap) {
        let p = &mut self.pm;
        let q = &other.pm;
        p.stores += q.stores;
        p.bytes_written += q.bytes_written;
        p.loads += q.loads;
        p.bytes_read += q.bytes_read;
        p.clwb += q.clwb;
        p.ntstores += q.ntstores;
        p.sfences += q.sfences;
        let k = &mut self.kernel;
        let j = &other.kernel;
        k.syscalls += j.syscalls;
        k.acquires += j.acquires;
        k.releases += j.releases;
        k.verifications += j.verifications;
        k.verify_failures += j.verify_failures;
        k.rollbacks += j.rollbacks;
        let a = &mut self.fs;
        let b = &other.fs;
        a.dcache_hits += b.dcache_hits;
        a.dcache_misses += b.dcache_misses;
        a.dcache_invalidations += b.dcache_invalidations;
        a.pool_refills += b.pool_refills;
        a.pool_releases += b.pool_releases;
        a.alloc_steals += b.alloc_steals;
        a.shared_lock_acqs += b.shared_lock_acqs;
        a.range_lock_acqs += b.range_lock_acqs;
        a.extent_inserts += b.extent_inserts;
        a.cow_tail_copies += b.cow_tail_copies;
        self.alloc_lock_acqs += other.alloc_lock_acqs;
    }

    /// Device time the latency model charges for these counts, in ns.
    /// Line counts are estimated from the counters as one partial line per
    /// access plus one line per 64 bytes moved.
    pub fn injected_ns(&self) -> f64 {
        let m = latency();
        let p = &self.pm;
        let ns = |d: Duration| d.as_nanos() as f64;
        let read_lines = p.loads as f64 + p.bytes_read as f64 / 64.0;
        let write_lines = p.stores as f64 + p.bytes_written as f64 / 64.0;
        ns(m.read_per_line) * read_lines
            + ns(m.write_per_line) * write_lines
            + ns(m.clwb) * p.clwb as f64
            + ns(m.sfence) * p.sfences as f64
    }
}

/// Every `ARCKFS_*` environment variable that is set: the benchmark runs
/// only the default configuration, so any of these is an error.
pub fn overriding_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ARCKFS_"))
        .collect()
}

/// The commit the checkout was taken from, when it is a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// One line recording the configuration a run measured.
pub fn describe(seed: u64) -> String {
    let c = libfs_config();
    let k = kernel_config();
    let m = latency();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "git_rev={} nproc={nproc} seed={seed} fs={} latency=optane(read {:?}/line, write {:?}/line, \
         clwb {:?}/line, sfence {:?}) syscall_cost={:?} dcache={} dcache_slots={} batch={} \
         extent={} range_locks={} delegation_threads={} alloc_shards={}",
        git_rev(),
        c.label(),
        m.read_per_line,
        m.write_per_line,
        m.clwb,
        m.sfence,
        k.syscall_cost,
        c.dcache,
        c.dcache_slots,
        c.batch_active(),
        c.extent,
        c.range_locks,
        c.delegation_threads,
        k.effective_alloc_shards(),
    )
}
