#!/bin/sh
# Rebuild crates/engine/tests/fixtures/pre_columnar: a data directory in
# the row-shaped durable format, written by commit 14e932e (the last one
# that wrote it) running write_pre_columnar.rs as an example.
#
# Usage, from the repository root:
#   crates/engine/tests/fixtures/make_pre_columnar.sh
# It prints the catalog epoch the directory recovered to on that commit.
# tests/format_compat.rs holds the current format to refusing it.
set -eu
rev=14e932e
here=crates/engine/tests/fixtures
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git archive "$rev" | tar -x -C "$work"
mkdir -p "$work/crates/engine/examples"
cp "$here/write_pre_columnar.rs" "$work/crates/engine/examples/"
(cd "$work" && cargo run -q --release --offline -p conquer-engine \
    --example write_pre_columnar -- "$work/out")
rm -rf "$here/pre_columnar"
cp -r "$work/out" "$here/pre_columnar"
