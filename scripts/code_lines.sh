#!/usr/bin/env bash
# Code-line count for the simplicity measurements in ROADMAP.md.
#
# A code line is a non-blank line whose first non-space characters are
# not `//`, above the first line starting with `#[cfg(test)]` (so unit
# tests and doc/line comments do not count). Run it after `cargo fmt`.
#
#   bash scripts/code_lines.sh              # the tracked files
#   bash scripts/code_lines.sh FILE...      # any files
#
# Prints one `count path` line per file, then the total. Informational:
# it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
  set -- \
    crates/am/src/manager.rs \
    crates/host/src/core.rs \
    crates/webenv/src/protocol.rs \
    crates/requester/src/lib.rs \
    crates/webenv/src/net.rs \
    crates/webenv/src/httpnet.rs
fi

total=0
for file in "$@"; do
  count="$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }
  ' "$file")"
  printf '%6d %s\n' "$count" "$file"
  total=$((total + count))
done
printf '%6d total\n' "$total"
