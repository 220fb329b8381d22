#!/usr/bin/env bash
# CI entry point: tier-1 verification plus style gates.
#
#   ./ci.sh
#
# Runs, in order:
#   1. release build of the whole workspace          (tier-1), with
#      --locked so a dependency change that would rewrite Cargo.lock
#      fails here
#   2. the full test suite                           (tier-1)
#   3. rustfmt in check mode, plus a guard that rand's StdRng is used
#      nowhere outside crates/stats (one RNG family: crn_sim::SimRng;
#      crn-sim's rng.rs keeps the one cross-check against StdRng)
#   4. clippy across the workspace with -D warnings
#   5. a quick-effort end-to-end run of every experiment (smoke test
#      for the harness + engine on real workloads; ~1 s)
#   6. the differential model-conformance suite, quick profile (the
#      Section 2 validator over property-generated workloads plus the
#      oracle-vs-physical-stack and oracle-vs-multihop-medium
#      cross-checks, the latter COGCAST through run_broadcast_on over
#      OracleMultihop on a complete topology, and the medium sweep
#      running the validator over all three media) — run
#      twice, under CRN_THREADS=1 (sequential stepping) and
#      CRN_THREADS=4 (every network fanned across the worker pool), so
#      the parallel decide/observe phases face the same contract and
#      serial winner replay as the sequential engine
#   7. the same experiment smoke with the in-step validator compiled
#      in (--features validate), so every slot of every experiment is
#      checked against the model contract end to end
#   8. rustdoc across the workspace with warnings denied (broken
#      intra-doc links are errors)
#   9. the benchmark's own tests (perfbench/, a separate workspace that
#      builds against the public API of crn-sim, crn-core and
#      crn-bench), so an API change that breaks the benchmark fails
#      here rather than when the benchmark is next run; --locked also
#      fails any crate dependency change that would rewrite the
#      benchmark's own perfbench/Cargo.lock
#
# Everything is offline: external dependencies resolve to the stubs
# under vendor/ (see Cargo.toml [workspace.dependencies]).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --locked"
cargo build --release --locked

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> one RNG family (no rand::rngs::StdRng outside crates/stats)"
# crn-stats stays on StdRng: moving it would add a crn-sim dependency
# and rewrite perfbench/Cargo.lock.
if grep -rn 'rngs::StdRng' crates src tests examples --include='*.rs' \
    | grep -v -e '^crates/stats/' -e '^crates/sim/src/rng.rs:'; then
    echo "ci.sh: use crn_sim::SimRng instead of rand::rngs::StdRng" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> experiments all --quick (smoke)"
cargo run --release -q -p crn-bench --bin experiments -- all --quick > /dev/null

echo "==> conformance --quick (differential suite, sequential stepping)"
CRN_THREADS=1 cargo run --release -q -p crn-bench --bin conformance -- --quick

echo "==> conformance --quick (differential suite, 4-worker parallel stepping)"
CRN_THREADS=4 cargo run --release -q -p crn-bench --bin conformance -- --quick

echo "==> experiments all --quick with the in-step validator (smoke)"
cargo run --release -q -p crn-bench --features validate --bin experiments -- all --quick > /dev/null

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --release --locked (perfbench, the benchmark's own tests)"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "ci.sh: all green"
