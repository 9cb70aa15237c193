//! Crash-consistency and recovery: crash images sampled at arbitrary
//! points are consistent under ArckFS+, and a remounted kernel recovers
//! the full tree.

use arckfs::{Config, LibFs};
use crashmc::{check_durable, check_sampled};
use pmem::PmemDevice;
use trio::{Kernel, KernelConfig};
use vfs::{FileSystem, FsExt};

const DEV: usize = 16 << 20;

#[test]
fn quiesced_workload_is_always_consistent() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.mkdir("/a").unwrap();
    fs.write_file("/a/f1", b"one").unwrap();
    fs.write_file("/a/f2", b"two").unwrap();
    fs.rename("/a/f1", "/a/renamed").unwrap();
    fs.unlink("/a/f2").unwrap();
    // Each operation fenced its own updates; any crash point after the
    // last fence is consistent (modulo benign residue).
    let report = check_sampled(&device, 100, 7).unwrap();
    assert!(report.is_consistent(), "{report:?}");
}

#[test]
fn every_sampled_crash_during_a_create_storm_is_consistent_with_fences() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.mkdir("/storm").unwrap();
    // Interleave creates and unlinks, sampling crash states mid-stream
    // (pending stores exist because the dir-size update is unfenced).
    for i in 0..30 {
        fs.create(&format!("/storm/file-with-a-long-name-{i:04}"))
            .map(|fd| fs.close(fd))
            .unwrap()
            .unwrap();
        if i % 3 == 0 {
            fs.unlink(&format!("/storm/file-with-a-long-name-{i:04}"))
                .unwrap();
        }
        if i % 5 == 0 {
            let report = check_sampled(&device, 20, i as u64).unwrap();
            assert!(report.is_consistent(), "at i={i}: {report:?}");
        }
    }
}

#[test]
fn remount_recovers_the_tree_after_crash() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.mkdir("/docs").unwrap();
    fs.write_file("/docs/report.txt", b"durable content").unwrap();
    fs.mkdir("/docs/sub").unwrap();
    fs.write_file("/docs/sub/deep.txt", &vec![0x7Au8; 10_000]).unwrap();
    // Commit any open batch (ARCKFS_BATCH=1 runs): the tree below is the
    // durable state the recovered kernel must reproduce.
    fs.sync().unwrap();

    // Crash: take a sampled crash image and bring up a whole new kernel
    // on the recovered device.
    let recovered = crashmc::recover_one(&device, 99).unwrap();
    let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
    let fs2 = LibFs::mount(kernel, Config::arckfs_plus(), 0).unwrap();

    assert_eq!(
        fs2.read_file("/docs/report.txt").unwrap(),
        b"durable content"
    );
    assert_eq!(
        fs2.read_file("/docs/sub/deep.txt").unwrap(),
        vec![0x7Au8; 10_000]
    );
    // And the recovered file system remains fully operational.
    fs2.write_file("/docs/new.txt", b"post-recovery").unwrap();
    assert_eq!(fs2.readdir("/docs").unwrap().len(), 3);
}

#[test]
fn durable_image_after_clean_unmount_is_pristine() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    for i in 0..10 {
        fs.write_file(&format!("/f{i}"), b"data").unwrap();
    }
    fs.unmount().unwrap();
    device.persist_all();
    let report = check_durable(&device).unwrap();
    assert!(report.is_consistent());
    assert_eq!(report.clean_states + report.benign_states, 1);
}

#[test]
fn recovery_reclaims_orphans_and_recomputes_sizes() {
    // Build a crash image with benign residue by hand: a committed inode
    // with no dentry (orphan) and a stale directory size.
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.write_file("/real.txt", b"visible").unwrap();
    fs.sync().unwrap(); // commit the create's batch under ARCKFS_BATCH=1
    let geom = trio::format::read_superblock(&device).unwrap();
    // Orphan: commit inode 50 with no dentry anywhere.
    let base = geom.inode_offset(50);
    device.write_u32(base + trio::format::I_TYPE, 1).unwrap();
    device.write_u64(base, 50).unwrap();
    device.persist_all();

    let report = check_durable(&device).unwrap();
    assert!(report.is_consistent(), "orphans are benign: {report:?}");
    assert_eq!(report.benign_states, 1);

    // A remounted kernel puts the orphan's number back into circulation.
    let recovered = PmemDevice::from_image(&device.persistent_image().unwrap());
    let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
    let fs2 = LibFs::mount(kernel, Config::arckfs_plus(), 0).unwrap();
    assert_eq!(fs2.read_file("/real.txt").unwrap(), b"visible");
}

#[test]
fn recovery_recomputes_a_directory_size_left_behind_by_a_crash() {
    let device = PmemDevice::new_tracked(DEV);
    let mut cfg = Config::arckfs_plus();
    cfg.batch = false; // every create is durable once acknowledged
    let (_k, fs) = arckfs::new_fs_on(device.clone(), cfg.clone()).unwrap();
    fs.mkdir("/d").unwrap();
    for i in 0..5 {
        let fd = fs.create(&format!("/d/f{i}")).unwrap();
        fs.close(fd).unwrap();
    }
    // Crash right after the last acknowledged create: its directory-size
    // store is not fenced, so the durable size is one behind the log.
    let recovered = PmemDevice::from_image(&device.persistent_image().unwrap());
    let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
    let fs2 = LibFs::mount(kernel, cfg, 0).unwrap();
    assert_eq!(fs2.readdir("/d").unwrap().len(), 5);
    fs2.release_path("/d").unwrap();
}

#[test]
fn rename_crash_window_is_benign_residue_at_worst() {
    // A same-directory rename appends the new dentry, then tombstones the
    // old. A crash between the two leaves the inode named twice — recovery
    // keeps the newer name; fsck must classify the state as benign.
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.write_file("/before", b"payload").unwrap();
    fs.sync().unwrap(); // close any open batch: "/before" must be committed
    device.persist_all(); // quiesce: the create is fully durable

    fs.rename("/before", "/after").unwrap();
    let report = check_sampled(&device, 200, 5).unwrap();
    assert!(report.is_consistent(), "{report:?}");

    // Recover a mid-rename crash state; exactly one of the names resolves.
    let recovered = crashmc::recover_one(&device, 3).unwrap();
    let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
    let fs2 = LibFs::mount(kernel, Config::arckfs_plus(), 0).unwrap();
    let before = fs2.stat("/before").is_ok();
    let after = fs2.stat("/after").is_ok();
    assert!(
        before != after,
        "exactly one name must survive (before={before}, after={after})"
    );
    let surviving = if after { "/after" } else { "/before" };
    assert_eq!(fs2.read_file(surviving).unwrap(), b"payload");
}

#[test]
fn unlink_crash_window_is_benign_residue_at_worst() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.write_file("/doomed", b"x").unwrap();
    device.persist_all();

    fs.unlink("/doomed").unwrap();
    // Crash states: file present (tombstone unpersisted), or gone, or gone
    // with an orphaned inode — all consistent.
    let report = check_sampled(&device, 200, 9).unwrap();
    assert!(report.is_consistent(), "{report:?}");
}

#[test]
fn exhaustive_enumeration_agrees_with_sampling_on_a_small_window() {
    use crashmc::check_exhaustive;
    let device = PmemDevice::new_tracked(8 << 20);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs()).unwrap();
    device.persist_all();

    // Park a buggy create mid-window, keeping the pending-store set small.
    let gate = arckfs::inject::arm("dentry.marker_flushed");
    let fs2 = fs.clone();
    let h = std::thread::spawn(move || {
        fs2.create("/exhaustive-check-victim-with-a-long-name")
            .map(|fd| fs2.close(fd))
    });
    assert!(gate.wait_reached(std::time::Duration::from_secs(10)));
    let exhaustive = check_exhaustive(&device, 200_000).unwrap();
    let sampled = check_sampled(&device, 400, 13).unwrap();
    gate.release();
    h.join().unwrap().unwrap().unwrap();

    if let Some(ex) = exhaustive {
        // Both methods must agree on whether the window is buggy.
        assert_eq!(
            ex.fatal_states > 0,
            sampled.fatal_states > 0,
            "exhaustive {ex:?} vs sampled {sampled:?}"
        );
        assert!(ex.fatal_states > 0, "the §4.2 window must be visible");
    } else {
        assert!(sampled.fatal_states > 0);
    }
}
