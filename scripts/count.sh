#!/usr/bin/env bash
# The counting rule: non-blank, non-comment lines of each .rs file
# above its first unindented `#[cfg(test)]` (the file's test module);
# a file that is all test — one carrying an unindented `#![cfg(test)]`
# — counts nothing.
# Usage: scripts/count.sh PATH... (files or directories); prints one
# count per PATH and the total.
set -euo pipefail
rule='FNR == 1 { f = 0 }
  /^#!\[cfg\(test\)\]/ { n -= f; nextfile }
  /^#\[cfg\(test\)\]/ { nextfile }
  /^[[:space:]]*(\/\/|$)/ { next }
  { n++; f++ }
  END { print n + 0 }'
total=0
for path in "$@"; do
  n=$(find "$path" -name '*.rs' -print0 | sort -z | xargs -0 -r awk "$rule")
  printf '%7d  %s\n' "$n" "$path"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
