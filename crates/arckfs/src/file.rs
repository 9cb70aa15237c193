//! Regular-file data path: block mapping through the per-file extent
//! tree (`crate::extent`), positional and vectored reads and writes,
//! preallocation, and truncation.
//!
//! Data writes persist synchronously (§2.2: "all data and metadata
//! operations are persisted synchronously, and `fsync()` returns
//! immediately"). Writes at or above [`crate::Config::ntstore_threshold`]
//! go through non-temporal stores, modelling ArckFS's OdinFS-style I/O
//! delegation for large transfers.
//!
//! ## Range locks (DESIGN.md §11)
//!
//! Every data operation acquires only the byte ranges it touches from the
//! per-inode [`crate::range_lock::RangeLockTable`]: disjoint-range writers
//! run fully parallel, truncate and the §4.3 release quiesce take the
//! whole file, and appends revalidate the EOF under their acquired range
//! (the TOCTOU `fix_append_atomic` closes). Delegated chunks (DESIGN.md
//! §10) inherit the submitter's range ownership: tickets are joined before
//! the range guard drops.

use std::sync::atomic::Ordering;

use pmem::{Mapping, PAGE_SIZE};
use trio::format::I_SIZE;
use vfs::{FsError, FsResult};

use crate::dir::map_fault;
use crate::inode::{InodeState, MemInode};
use crate::libfs::LibFs;
use crate::range_lock::{Range, RangeGuard};

/// Sparse-block cap for regular files (16 TiB of 4 KiB blocks) — far
/// past anything the device can back, but it keeps
/// [`FsError::FileTooBig`] a typed, testable condition.
pub(crate) const EXTENT_MAX_BLOCKS: u64 = 1 << 32;

impl LibFs {
    /// §4.3 state check, run once the data-path range is held: the
    /// patched release takes the whole-file range before unmapping, so an
    /// `Acquired` observed here cannot turn stale until the guard drops. A
    /// `Released` observation turns into the internal retry sentinel (the
    /// caller re-acquires and replays) instead of the bus error the
    /// original artifact dies with.
    fn file_release_check(&self, file: &MemInode) -> FsResult<()> {
        if self.config.fix_release_sync && file.state() != InodeState::Acquired {
            return Err(FsError::Released { ino: file.ino });
        }
        Ok(())
    }

    /// Acquire the write side of `ranges` (merged into the minimal set)
    /// and run the §4.3 release check under it.
    fn write_guard<'a>(&self, file: &'a MemInode, ranges: Vec<Range>) -> FsResult<RangeGuard<'a>> {
        crate::inject::point("file.write.range_lock");
        let g = file.ranges.acquire_ranges(ranges, true);
        self.count_range_lock();
        self.file_release_check(file)?;
        Ok(g)
    }

    /// Acquire the read side of `range` and run the §4.3 release check
    /// under it.
    fn read_guard<'a>(&self, file: &'a MemInode, range: Range) -> FsResult<RangeGuard<'a>> {
        let g = file.ranges.acquire(range, false);
        self.count_range_lock();
        self.file_release_check(file)?;
        Ok(g)
    }

    /// Resolve the data page backing block `idx` of the file through its
    /// extent tree. With `alloc`, a missing block gets a fresh page linked
    /// by a crash-atomic extent record; otherwise 0 is returned for holes.
    pub(crate) fn file_block_page(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        idx: u64,
        alloc: bool,
    ) -> FsResult<u64> {
        let page = self.extent_lookup(file, mapping, idx)?;
        if page != 0 || !alloc {
            return Ok(page);
        }
        if idx >= EXTENT_MAX_BLOCKS {
            return Err(FsError::FileTooBig { block: idx });
        }
        let page = self.alloc_page()?;
        self.extent_insert(file, mapping, idx, page)?;
        Ok(page)
    }

    /// The file's current size. With the §4.3 patch, read operations use
    /// the size cached in the in-memory inode; the original artifact reads
    /// it through the mapping (which faults if another thread released the
    /// inode concurrently).
    pub(crate) fn file_size(&self, file: &MemInode, mapping: &Mapping) -> FsResult<u64> {
        if self.config.fix_release_sync {
            Ok(file.cached_size.load(Ordering::SeqCst))
        } else {
            mapping
                .read_u64(self.geom.inode_offset(file.ino) + I_SIZE)
                .map_err(map_fault)
        }
    }

    /// Publish a grown end-of-file. Monotone under `file.meta`: two
    /// disjoint range writers racing a bare read-modify-write on the size
    /// field could otherwise shrink it (truncate is the only legitimate
    /// shrinker, and it holds the whole file).
    fn file_publish_size(&self, file: &MemInode, mapping: &Mapping, end: u64) -> FsResult<()> {
        let _m = file.meta.lock();
        let field = self.geom.inode_offset(file.ino) + I_SIZE;
        let size_now = mapping.read_u64(field).map_err(map_fault)?;
        if end > size_now {
            mapping.write_u64(field, end).map_err(map_fault)?;
            mapping.clwb(field, 8).map_err(map_fault)?;
            mapping.sfence();
            file.cached_size.fetch_max(end, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Positional read.
    pub(crate) fn file_read_at(
        &self,
        file: &MemInode,
        buf: &mut [u8],
        offset: u64,
    ) -> FsResult<usize> {
        let _g = self.read_guard(file, Range::of(offset, buf.len()))?;
        self.file_read_body(file, buf, offset)
    }

    fn file_read_body(&self, file: &MemInode, buf: &mut [u8], offset: u64) -> FsResult<usize> {
        let mapping = file.mapping_handle();
        let size = self.file_size(file, &mapping)?;
        if offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        let mut done = 0usize;
        while done < want {
            let pos = offset + done as u64;
            let idx = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(want - done);
            let page = self.file_block_page(file, &mapping, idx, false)?;
            if page == 0 {
                // Hole: reads as zeroes.
                buf[done..done + n].fill(0);
            } else {
                mapping
                    .read(
                        page * PAGE_SIZE as u64 + in_page as u64,
                        &mut buf[done..done + n],
                    )
                    .map_err(map_fault)?;
            }
            done += n;
        }
        Ok(want)
    }

    /// Vectored positional read: one shared range over the whole span,
    /// then every buffer filled at its consecutive offset.
    pub(crate) fn file_read_vectored(
        &self,
        file: &MemInode,
        bufs: &mut [&mut [u8]],
        offset: u64,
    ) -> FsResult<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let _g = self.read_guard(file, Range::of(offset, total))?;
        let mut done = 0usize;
        for buf in bufs.iter_mut() {
            let n = self.file_read_body(file, buf, offset + done as u64)?;
            done += n;
            if n < buf.len() {
                break; // EOF inside this buffer
            }
        }
        Ok(done)
    }

    /// Positional write; extends the file, persists synchronously.
    pub(crate) fn file_write_at(
        &self,
        file: &MemInode,
        data: &[u8],
        offset: u64,
    ) -> FsResult<usize> {
        let _g = self.write_guard(file, vec![Range::of(offset, data.len())])?;
        let mapping = file.mapping_handle();
        inject::point_file_write();
        self.file_write_locked(file, &mapping, data, offset)
    }

    /// Vectored positional write: all iovecs land contiguously at
    /// `offset` under **one** range acquisition, with one trailing
    /// fence and one size publication. Large totals go through the
    /// delegation rings as a single submit batch spanning every iovec.
    pub(crate) fn file_write_vectored(
        &self,
        file: &MemInode,
        bufs: &[&[u8]],
        offset: u64,
    ) -> FsResult<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if total == 0 {
            return Ok(0);
        }
        let _g = self.write_guard(file, vec![Range::of(offset, total)])?;
        let mapping = file.mapping_handle();
        inject::point_file_write();
        self.file_write_vectored_body(file, &mapping, bufs, offset, total)?;
        Ok(total)
    }

    /// Vectored `O_APPEND` write: the whole gather lands at end-of-file as
    /// one unit. Same EOF disciplines as [`LibFs::file_append`].
    pub(crate) fn file_append_vectored(&self, file: &MemInode, bufs: &[&[u8]]) -> FsResult<u64> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if !self.config.fix_append_atomic {
            // Buggy baseline: EOF snapshot outside the range lock.
            let offset = self.file_size(file, &file.mapping_handle())?;
            crate::inject::point("file.append.offset_read");
            self.file_write_vectored(file, bufs, offset)?;
            return Ok(offset);
        }
        loop {
            let offset = self.file_size(file, &file.mapping_handle())?;
            crate::inject::point("file.append.offset_read");
            let g = self.write_guard(file, vec![Range::of(offset, total)])?;
            let mapping = file.mapping_handle();
            if self.file_size(file, &mapping)? != offset {
                drop(g); // lost the EOF race; retry at the new end
                continue;
            }
            inject::point_file_write();
            self.file_write_vectored_body(file, &mapping, bufs, offset, total)?;
            return Ok(offset);
        }
    }

    /// Store, fence, and size-publish a gather with the range already
    /// held: one delegation batch (or one span loop), one trailing fence,
    /// one size publication for the whole vector.
    fn file_write_vectored_body(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        bufs: &[&[u8]],
        offset: u64,
        total: usize,
    ) -> FsResult<()> {
        if total >= self.config.delegation_min && self.delegation.workers() > 0 {
            // One submit batch across every iovec, one join.
            let mut tickets = Vec::new();
            let mut first_err: Option<FsError> = None;
            let mut pos = offset;
            for buf in bufs {
                if let Err(e) = self.file_delegate_span(file, mapping, buf, pos, &mut tickets) {
                    first_err = Some(e);
                    break;
                }
                pos += buf.len() as u64;
            }
            for t in tickets {
                if let Err(e) = t.wait() {
                    first_err.get_or_insert(e);
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        } else {
            let use_nt = total >= self.config.ntstore_threshold;
            let mut pos = offset;
            for buf in bufs {
                self.file_write_span(file, mapping, buf, pos, use_nt)?;
                pos += buf.len() as u64;
            }
        }
        mapping.sfence();
        self.file_publish_size(file, mapping, offset + total as u64)?;
        Ok(())
    }

    /// `O_APPEND` write. Returns the offset the data landed at.
    ///
    /// The appender snapshots the EOF, acquires `[EOF, EOF+len)`, and
    /// **revalidates** the EOF under the acquisition, retrying on a lost
    /// race, so two concurrent appenders can never land on the same
    /// end-of-file. The write goes through the copy-on-write tail. (The
    /// pre-`fix_append_atomic` path computes the offset from a size read
    /// taken before the range lock — the TOCTOU schedmc flushed out.)
    pub(crate) fn file_append(&self, file: &MemInode, data: &[u8]) -> FsResult<u64> {
        if !self.config.fix_append_atomic {
            // The buggy baseline: the offset snapshot happens before (and
            // unprotected by) the range lock, so two appenders can overlap.
            let offset = self.file_size(file, &file.mapping_handle())?;
            crate::inject::point("file.append.offset_read");
            let _g = self.write_guard(file, vec![Range::of(offset, data.len())])?;
            let mapping = file.mapping_handle();
            inject::point_file_write();
            self.file_write_cow(file, &mapping, data, offset)?;
            return Ok(offset);
        }
        loop {
            let offset = self.file_size(file, &file.mapping_handle())?;
            crate::inject::point("file.append.offset_read");
            let g = self.write_guard(file, vec![Range::of(offset, data.len())])?;
            let mapping = file.mapping_handle();
            if self.file_size(file, &mapping)? != offset {
                drop(g); // lost the EOF race; retry at the new end
                continue;
            }
            inject::point_file_write();
            self.file_write_cow(file, &mapping, data, offset)?;
            return Ok(offset);
        }
    }

    /// Write with a copy-on-write tail (DESIGN.md §11): when the write
    /// starts mid-page in an extent-mapped block, the committed prefix is
    /// copied into a fresh page, the new bytes are written there, and the
    /// extent record is atomically remapped — so a crash at any point
    /// leaves either the old tail or a fully-written new one, never a
    /// partially appended page. Falls back to the in-place write when the
    /// block is a hole (or sits mid-run).
    fn file_write_cow(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
    ) -> FsResult<usize> {
        let in_page = (offset % PAGE_SIZE as u64) as usize;
        if in_page == 0 || data.is_empty() {
            return self.file_write_locked(file, mapping, data, offset);
        }
        let idx = offset / PAGE_SIZE as u64;
        let old_page = self.extent_lookup(file, mapping, idx)?;
        if old_page == 0 {
            return self.file_write_locked(file, mapping, data, offset);
        }

        let n = (PAGE_SIZE - in_page).min(data.len());
        let new_page = self.alloc_page()?;
        let new_base = new_page * PAGE_SIZE as u64;
        // Committed prefix, then the new bytes, then a zeroed remainder.
        let mut content = vec![0u8; PAGE_SIZE];
        mapping
            .read(old_page * PAGE_SIZE as u64, &mut content[..in_page])
            .map_err(map_fault)?;
        content[in_page..in_page + n].copy_from_slice(&data[..n]);
        mapping.write(new_base, &content).map_err(map_fault)?;
        mapping.clwb(new_base, PAGE_SIZE).map_err(map_fault)?;
        mapping.sfence();
        // The commit window: new page fully persisted, mapping not yet
        // switched. A crash here leaves the old tail intact.
        crate::inject::point("file.write.cow_tail");
        if !self.extent_remap_tail(file, mapping, idx, new_page)? {
            // Mid-run block: cannot split with one shrink. In-place write
            // (new bytes only land past the committed prefix, which stays
            // untouched, so prefix-or-nothing still holds through the size
            // publication order).
            self.recycle_pages(vec![new_page]);
            return self.file_write_locked(file, mapping, data, offset);
        }
        self.recycle_pages(vec![old_page]);
        self.count_cow_tail();
        if n < data.len() {
            self.file_write_locked(file, mapping, &data[n..], offset + n as u64)?;
        } else {
            self.file_publish_size(file, mapping, offset + n as u64)?;
        }
        Ok(data.len())
    }

    /// Body of a positional write, with the range already held and the
    /// release check done.
    fn file_write_locked(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
    ) -> FsResult<usize> {
        // Very large transfers go through the delegation pool: allocate
        // the whole range first, then ship page-aligned runs to the
        // workers and wait before the fence.
        if data.len() >= self.config.delegation_min && self.delegation.workers() > 0 {
            self.file_write_delegated(file, mapping, data, offset)?;
        } else {
            let use_nt = data.len() >= self.config.ntstore_threshold;
            self.file_write_span(file, mapping, data, offset, use_nt)?;
            mapping.sfence();
        }
        self.file_publish_size(file, mapping, offset + data.len() as u64)?;
        Ok(data.len())
    }

    /// Per-page store loop for one contiguous span: allocate, zero fresh
    /// partial pages, store (cached + clwb or non-temporal). No trailing
    /// fence and no size publication — the caller owns both, so vectored
    /// writes amortize them across iovecs.
    fn file_write_span(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
        use_nt: bool,
    ) -> FsResult<()> {
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let idx = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let fresh_before = self.file_block_page(file, mapping, idx, false)? == 0;
            let page = self.file_block_page(file, mapping, idx, true)?;
            let base = page * PAGE_SIZE as u64;
            if fresh_before && n < PAGE_SIZE {
                // Partial write into a fresh page: zero the rest so holes
                // read as zeroes.
                let zeroes = [0u8; 1024];
                for i in 0..4 {
                    mapping.write(base + i * 1024, &zeroes).map_err(map_fault)?;
                }
            }
            let chunk = &data[done..done + n];
            if use_nt {
                // Delegation path: non-temporal stores bypass the cache and
                // need no clwb.
                mapping
                    .ntstore(base + in_page as u64, chunk)
                    .map_err(map_fault)?;
            } else {
                mapping
                    .write(base + in_page as u64, chunk)
                    .map_err(map_fault)?;
                mapping.clwb(base + in_page as u64, n).map_err(map_fault)?;
            }
            crate::inject::point("file.write.chunk");
            done += n;
        }
        Ok(())
    }

    /// Allocate (and zero, if fresh and partial) the backing page of one
    /// chunk, then ship it to the delegation pool.
    fn delegate_chunk(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        idx: u64,
        in_page: usize,
        chunk: &[u8],
    ) -> FsResult<crate::delegate::Ticket> {
        let fresh_before = self.file_block_page(file, mapping, idx, false)? == 0;
        let page = self.file_block_page(file, mapping, idx, true)?;
        let base = page * PAGE_SIZE as u64;
        if fresh_before && chunk.len() < PAGE_SIZE {
            let zeroes = [0u8; 1024];
            for i in 0..4 {
                mapping.write(base + i * 1024, &zeroes).map_err(map_fault)?;
            }
        }
        self.delegation.submit(mapping, base + in_page as u64, chunk)
    }

    /// Submit one contiguous span to the delegation rings as page-aligned
    /// chunks, pushing tickets for the caller to join. Stops at the first
    /// submit error (already-submitted chunks stay in `tickets` so the
    /// caller still drains them).
    fn file_delegate_span(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
        tickets: &mut Vec<crate::delegate::Ticket>,
    ) -> FsResult<()> {
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let idx = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            tickets.push(self.delegate_chunk(file, mapping, idx, in_page, &data[done..done + n])?);
            done += n;
        }
        Ok(())
    }

    /// Delegated write path: allocate backing pages, ship contiguous
    /// same-page runs to the delegation pool, then join and fence. The
    /// caller publishes the size.
    fn file_write_delegated(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
    ) -> FsResult<()> {
        let mut tickets = Vec::new();
        // No early `?` once tickets exist: an error must still drain every
        // outstanding ticket below, or the workers would keep streaming
        // into pages the caller believes failed (and the tickets would be
        // dropped incomplete).
        let mut first_err = self
            .file_delegate_span(file, mapping, data, offset, &mut tickets)
            .err();
        // Join *all* tickets, keeping the first error: an early return on
        // the first failed wait used to drop the rest incomplete,
        // discarding their faults along with the durability guarantee.
        for t in tickets {
            if let Err(e) = t.wait() {
                first_err.get_or_insert(e);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        mapping.sfence();
        Ok(())
    }

    /// Preallocate backing pages for `[offset, offset + len)` through the
    /// sharded allocator and extend the file size over the region (which
    /// therefore reads as zeroes until written). The reservation lands as
    /// contiguous extent runs where the pool delivers contiguous pages.
    pub(crate) fn file_fallocate(&self, file: &MemInode, offset: u64, len: u64) -> FsResult<()> {
        if len == 0 {
            return Ok(());
        }
        let _g = self.write_guard(file, vec![Range::of(offset, len as usize)])?;
        let mapping = file.mapping_handle();
        let first = offset / PAGE_SIZE as u64;
        let last = (offset + len - 1) / PAGE_SIZE as u64;
        if last >= EXTENT_MAX_BLOCKS {
            return Err(FsError::FileTooBig { block: last });
        }

        let mut missing: Vec<u64> = Vec::new();
        for idx in first..=last {
            if self.file_block_page(file, &mapping, idx, false)? == 0 {
                missing.push(idx);
            }
        }
        // Group consecutive missing blocks, allocate their pages, and
        // reserve each group as (at most a few) extent records.
        let mut i = 0usize;
        while i < missing.len() {
            let mut j = i + 1;
            while j < missing.len() && missing[j] == missing[j - 1] + 1 {
                j += 1;
            }
            let mut pages = Vec::with_capacity(j - i);
            for _ in i..j {
                let p = self.alloc_page()?;
                self.zero_page(&mapping, p)?;
                pages.push(p);
            }
            mapping.sfence();
            self.extent_insert_run(file, &mapping, missing[i], &pages)?;
            i = j;
        }
        self.file_publish_size(file, &mapping, offset + len)?;
        Ok(())
    }

    /// Truncate (shrink or extend-with-holes) to `size`. Freed pages return
    /// to the LibFS's local pool. This is the DWTL workload's operation.
    /// Takes the whole file.
    pub(crate) fn file_truncate(&self, file: &MemInode, size: u64) -> FsResult<()> {
        let _g = self.write_guard(file, vec![Range::all()])?;
        let mapping = file.mapping_handle();
        // The same typed boundary write_at and fallocate enforce: a grow
        // past the block cap is EFBIG, not a later panic.
        if size.div_ceil(PAGE_SIZE as u64) > EXTENT_MAX_BLOCKS {
            return Err(FsError::FileTooBig {
                block: (size - 1) / PAGE_SIZE as u64,
            });
        }
        let old = self.file_size(file, &mapping)?;
        if size < old {
            // Decommit runs at and beyond the boundary.
            let first_dead = size.div_ceil(PAGE_SIZE as u64);
            let freed = self.extent_truncate_blocks(file, &mapping, first_dead)?;
            self.recycle_pages(freed);
            // Zero the tail of the boundary page: bytes past the new end
            // must read as zero if the file is later re-extended (POSIX).
            let in_page = (size % PAGE_SIZE as u64) as usize;
            if in_page != 0 {
                let page =
                    self.file_block_page(file, &mapping, size / PAGE_SIZE as u64, false)?;
                if page != 0 {
                    let off = page * PAGE_SIZE as u64 + in_page as u64;
                    let zeroes = vec![0u8; PAGE_SIZE - in_page];
                    mapping.write(off, &zeroes).map_err(map_fault)?;
                    mapping.clwb(off, zeroes.len()).map_err(map_fault)?;
                }
            }
        }
        let _m = file.meta.lock();
        let field = self.geom.inode_offset(file.ino) + I_SIZE;
        mapping.write_u64(field, size).map_err(map_fault)?;
        mapping.clwb(field, 8).map_err(map_fault)?;
        mapping.sfence();
        file.cached_size.store(size, Ordering::SeqCst);
        Ok(())
    }
}

mod inject {
    /// File-write schedule point (kept in a private shim so the data path
    /// has a single, cheap call site).
    #[inline]
    pub fn point_file_write() {
        crate::inject::point("file.write.core");
    }
}
