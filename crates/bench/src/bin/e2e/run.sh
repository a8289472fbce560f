#!/usr/bin/env bash
# Build the e2e benchmark (the `e2e` bin of parmem-bench) and the `parmem`
# binary whose daemon it drives, then run the benchmark with the given
# arguments, e.g. from the repository root:
#
#   bash crates/bench/src/bin/e2e/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Both bins build through the workspace manifest into CARGO_TARGET_DIR
# (default: target/ at the repository root). Build output goes to stderr,
# so stdout ends with the result line.
set -euo pipefail
root="$(dirname "${BASH_SOURCE[0]}")/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    --workspace --bin parmem --bin e2e >&2
exec "$CARGO_TARGET_DIR/release/e2e" --parmem "$CARGO_TARGET_DIR/release/parmem" "$@"
