#!/usr/bin/env bash
# The full local lint gate: formatting, clippy (warnings are errors),
# rustdoc (warnings are errors, including broken intra-doc links — the
# `docs/` markdown pages are included into the `mavfi-suite` crate docs, so
# the same gate covers them), a release build of the benchmark package
# (`perfbench/` calls the crates' public API, so an API change that breaks
# it fails here), a smoke run of the instrumented-telemetry example, a
# bit-identical replay of the golden-trace store (`retrace --verify`), a
# kill/resume smoke run of the campaign server, and a relative-link
# existence check over the repository's markdown documentation.
#
# Usage: ./scripts/check.sh
#
# This is the cheap half of CI (.github/workflows/ci.yml); it does not run
# the test suite (`cargo test -q`, about 2 minutes on a 2-core machine once
# built), which holds the determinism and work-count gates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps (includes docs/*.md)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet

echo "==> benchmark package builds (cargo build --manifest-path perfbench/Cargo.toml)"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

echo "==> telemetry_report example smoke run"
cargo run --release --offline -q --example telemetry_report >/dev/null

echo "==> golden traces replay bit-identically (retrace --verify)"
cargo run --release --offline -q --example retrace -- --verify >/dev/null

echo "==> campaign server kill/resume smoke (campaign_server --smoke)"
cargo run --release --offline -q --example campaign_server -- --smoke >/dev/null

echo "==> markdown relative links resolve (README.md, docs/, CHANGES.md)"
broken=0
for file in README.md CHANGES.md docs/*.md; do
  dir=$(dirname "$file")
  # Extract relative markdown link targets: [text](target), skipping
  # absolute URLs and in-page anchors.
  while IFS= read -r target; do
    target="${target%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "  broken link in $file: $target"
      broken=1
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$file" | sed -E 's/^\]\(//; s/\)$//' \
             | grep -vE '^(https?|mailto):' || true)
done
if [ "$broken" -ne 0 ]; then
  echo "Broken documentation links found."
  exit 1
fi

echo "All checks passed."
