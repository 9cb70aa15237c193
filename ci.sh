#!/bin/sh
# CI gate: release build, full test suite, lint-clean with warnings denied.
#
# Works fully offline: all external dependencies are path-resolved to the
# stand-ins under vendor/ (the build environment cannot reach crates.io),
# so no pre-warmed registry is required. Run from the repository root.
#
# The test suite runs five times: once with the dentry cache enabled
# (the default), once with ARCKFS_DCACHE=0 so the lock-free resolution
# path and the plain locked walk both stay green, once with
# ARCKFS_ALLOC_SHARDS=1 so the sharded allocator's single-shard (old
# global-lock) configuration stays behaviour-identical (DESIGN.md §9),
# once each with ARCKFS_DELEG_RINGS=0 (inline data path, the delegation
# runtime fully off) and ARCKFS_DELEG_RINGS=4 (the per-core SQ/CQ ring
# runtime arbitrating every large write, DESIGN.md §10). Every metadata
# operation commits inline (DESIGN.md §8), so there is no commit-mode
# leg. The alloc_scale smoke pins the sharding win (>= 4x busiest-shard
# lock-acquisition reduction at 8 shards, a deterministic count); the
# delegate_scale smoke pins the ring win (>= 2x 8-thread submit
# throughput over ticket-per-op, with fences/op falling as the drain
# batch grows); the shared_file smoke
# runs the DWOM, fio-style sequential and DWAL shapes on the range-locked
# extent path (DESIGN.md §11) and asserts every DWOM write crosses the
# interval table. The service_storm smoke runs twice (DESIGN.md §12): once
# with per-tenant quotas on (asserting the typed QuotaExceeded rejection
# for the capped tenant while others proceed, and the cold-tenant p99
# fairness bound under a 10x hot tenant) and once with quotas off
# (asserting the bare providers track no charges at all — tenancy is
# pay-for-what-you-use). Both legs force 4 allocator shards so the
# fairness-capped steal path runs even on small CI boxes.
#
# The schedmc step exhaustively explores every 2-op interleaving of the
# explorer vocabulary at preemption bound 2 (seeded, time-budgeted,
# < 60 s in release mode) and fails on any oracle verdict; coverage lands
# in results/obs_schedmc.json. ARCKFS_SCHEDMC_DEEP=1 adds the 3-op sweep
# at bound 3 (minutes, off by default). See DESIGN.md §7.
#
# The fuzz step (DESIGN.md §13) runs the coverage-guided crash/schedule
# fuzzing smoke: exec-bounded (ARCKFS_FUZZ_EXECS, default 24 — about
# half a minute in release), seeded (ARCKFS_FUZZ_SEED), fully
# deterministic (same seed => byte-identical coverage fingerprints in
# results/obs_fuzz.json). It fails on any oracle or mined-invariant
# violation, on a campaign with zero new-coverage events, and whenever
# the fuzzer's (inject-point, crash-fingerprint) pair coverage does not
# beat the exhaustive bound-2 pair sweep on the same wall-clock budget.
# ARCKFS_SCHEDMC_DEEP=2 runs the nightly leg instead: wall-clock
# budgeted (ARCKFS_FUZZ_BUDGET_MS, default two minutes), delegation
# rings on, no determinism claim.
set -eux

cargo build --release
ARCKFS_DCACHE=1 cargo test -q --workspace
ARCKFS_DCACHE=0 cargo test -q --workspace
ARCKFS_ALLOC_SHARDS=1 cargo test -q --workspace
ARCKFS_DELEG_RINGS=0 cargo test -q --workspace
ARCKFS_DELEG_RINGS=4 cargo test -q --workspace
BENCH_ITERS=2000 cargo run --release -q -p bench --bin alloc_scale
BENCH_ITERS=2000 cargo run --release -q -p bench --bin delegate_scale
BENCH_ITERS=2000 cargo run --release -q -p bench --bin shared_file
BENCH_ITERS=2000 ARCKFS_TENANTS=8 ARCKFS_ALLOC_SHARDS=4 \
    ARCKFS_QUOTA_PAGES=2048 ARCKFS_QUOTA_INODES=512 \
    cargo run --release -q -p bench --bin service_storm
BENCH_ITERS=2000 ARCKFS_TENANTS=8 ARCKFS_ALLOC_SHARDS=4 \
    cargo run --release -q -p bench --bin service_storm
ARCKFS_SCHEDMC_DEEP=0 cargo run --release -q -p schedmc
if [ "${ARCKFS_SCHEDMC_DEEP:-0}" = "1" ]; then
    ARCKFS_SCHEDMC_DEEP=1 cargo run --release -q -p schedmc
fi
ARCKFS_SCHEDMC_DEEP=0 cargo run --release -q -p schedmc -- fuzz
if [ "${ARCKFS_SCHEDMC_DEEP:-0}" = "2" ]; then
    ARCKFS_SCHEDMC_DEEP=2 cargo run --release -q -p schedmc -- fuzz
fi
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
