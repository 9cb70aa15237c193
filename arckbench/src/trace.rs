//! Spans recorded from the benchmark's own code around calls into each
//! layer, for the traced runs only.
//!
//! A root span is one workload op (one turn for share_handoff); every
//! `FileSystem` call made while it is open, and every `release_path` the
//! benchmark times, becomes its child. Spans stay in memory, in a buffer
//! per thread, until the run writes them out.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vfs::{DirEntry, Fd, FileSystem, FsResult, FsStats, Metadata, OpenFlags};

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The root span's id: every span of one op shares it.
    pub req: u64,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    threads: AtomicU64,
}

struct Local {
    tracer: Arc<Tracer>,
    tid: u64,
    next: u64,
    root: Option<u64>,
    buf: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            threads: AtomicU64::new(1),
        })
    }

    /// Record the calling thread's spans into this tracer until
    /// [`detach`].
    pub fn attach(self: &Arc<Self>) {
        let tid = self.threads.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|l| {
            *l.borrow_mut() = Some(Local {
                tracer: self.clone(),
                tid,
                next: 1,
                root: None,
                buf: Vec::with_capacity(1 << 16),
            })
        });
    }

    /// Every span recorded so far by detached threads, in start order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.parent != 0));
        spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Stop recording on the calling thread and hand its spans to the tracer.
pub fn detach() {
    if let Some(local) = LOCAL.with(|l| l.borrow_mut().take()) {
        local
            .tracer
            .spans
            .lock()
            .expect("span buffer poisoned")
            .extend(local.buf);
    }
}

/// Run `f` as a root span. Untraced threads just run `f`.
pub fn root<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let local = l.as_mut()?;
        let id = local.tid << 40 | local.next;
        local.next += 1;
        local.root = Some(id);
        Some((id, local.tracer.now_ns()))
    });
    let out = f();
    if let Some((id, start_ns)) = start {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let local = l.as_mut().expect("attached");
            let end_ns = local.tracer.now_ns();
            local.root = None;
            local.buf.push(Span {
                name,
                req: id,
                id,
                parent: 0,
                start_ns,
                end_ns,
            });
        });
    }
    out
}

/// Run `f` as a child of the open root span, if there is one.
pub fn child<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let local = l.as_mut()?;
        let root = local.root?;
        let id = local.tid << 40 | local.next;
        local.next += 1;
        Some((root, id, local.tracer.now_ns()))
    });
    let out = f();
    if let Some((root, id, start_ns)) = start {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let local = l.as_mut().expect("attached");
            let end_ns = local.tracer.now_ns();
            local.buf.push(Span {
                name,
                req: root,
                id,
                parent: root,
                start_ns,
                end_ns,
            });
        });
    }
    out
}

/// Write `spans` as tab-separated lines to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\treq\tid\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.req, s.id, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// A `FileSystem` that forwards every trait method to `inner` inside a
/// child span named after the method. Every method is forwarded, the
/// defaulted ones included, so callers take the same code paths in the
/// program as they do untraced.
pub struct TracedFs<F: ?Sized> {
    inner: Arc<F>,
}

impl<F: FileSystem + ?Sized> TracedFs<F> {
    pub fn new(inner: Arc<F>) -> TracedFs<F> {
        TracedFs { inner }
    }
}

impl<F: FileSystem + ?Sized> FileSystem for TracedFs<F> {
    fn fs_name(&self) -> &str {
        self.inner.fs_name()
    }
    fn create(&self, path: &str) -> FsResult<Fd> {
        child("create", || self.inner.create(path))
    }
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        child("open", || self.inner.open(path, flags))
    }
    fn close(&self, fd: Fd) -> FsResult<()> {
        child("close", || self.inner.close(fd))
    }
    fn read_at(&self, fd: Fd, buf: &mut [u8], offset: u64) -> FsResult<usize> {
        child("read_at", || self.inner.read_at(fd, buf, offset))
    }
    fn write_at(&self, fd: Fd, buf: &[u8], offset: u64) -> FsResult<usize> {
        child("write_at", || self.inner.write_at(fd, buf, offset))
    }
    fn append(&self, fd: Fd, buf: &[u8]) -> FsResult<u64> {
        child("append", || self.inner.append(fd, buf))
    }
    fn write_vectored_at(&self, fd: Fd, bufs: &[&[u8]], offset: u64) -> FsResult<usize> {
        child("write_vectored_at", || {
            self.inner.write_vectored_at(fd, bufs, offset)
        })
    }
    fn read_vectored_at(&self, fd: Fd, bufs: &mut [&mut [u8]], offset: u64) -> FsResult<usize> {
        child("read_vectored_at", || {
            self.inner.read_vectored_at(fd, bufs, offset)
        })
    }
    fn fallocate(&self, fd: Fd, offset: u64, len: u64) -> FsResult<()> {
        child("fallocate", || self.inner.fallocate(fd, offset, len))
    }
    fn fsync(&self, fd: Fd) -> FsResult<()> {
        child("fsync", || self.inner.fsync(fd))
    }
    fn sync(&self) -> FsResult<()> {
        child("sync", || self.inner.sync())
    }
    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        child("truncate", || self.inner.truncate(fd, size))
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        child("unlink", || self.inner.unlink(path))
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        child("mkdir", || self.inner.mkdir(path))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        child("rmdir", || self.inner.rmdir(path))
    }
    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        child("rename", || self.inner.rename(from, to))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        child("readdir", || self.inner.readdir(path))
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        child("stat", || self.inner.stat(path))
    }
    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        child("fstat", || self.inner.fstat(fd))
    }
    fn open_dir(&self, path: &str) -> FsResult<Fd> {
        child("open_dir", || self.inner.open_dir(path))
    }
    fn fd_dir_path(&self, dirfd: Fd) -> FsResult<String> {
        child("fd_dir_path", || self.inner.fd_dir_path(dirfd))
    }
    fn open_at(&self, dirfd: Fd, name: &str, flags: OpenFlags) -> FsResult<Fd> {
        child("open_at", || self.inner.open_at(dirfd, name, flags))
    }
    fn stat_at(&self, dirfd: Fd, name: &str) -> FsResult<Metadata> {
        child("stat_at", || self.inner.stat_at(dirfd, name))
    }
    fn unlink_at(&self, dirfd: Fd, name: &str) -> FsResult<()> {
        child("unlink_at", || self.inner.unlink_at(dirfd, name))
    }
    fn mkdir_at(&self, dirfd: Fd, name: &str) -> FsResult<()> {
        child("mkdir_at", || self.inner.mkdir_at(dirfd, name))
    }
    fn stats(&self) -> FsStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_the_open_root() {
        let tracer = Tracer::new();
        tracer.attach();
        child("outside", || ());
        root("op", || {
            child("a", || ());
            child("b", || ());
        });
        detach();
        let spans = tracer.take();
        assert_eq!(spans.len(), 3, "a child outside any root is not recorded");
        let r = spans.iter().find(|s| s.parent == 0).expect("root");
        assert_eq!(r.name, "op");
        for c in spans.iter().filter(|s| s.parent != 0) {
            assert_eq!((c.parent, c.req), (r.id, r.id));
            assert!(c.start_ns >= r.start_ns && c.end_ns <= r.end_ns);
        }
    }
}
