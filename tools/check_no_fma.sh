#!/usr/bin/env bash
# FMA-free gate (wired as `ctest -L lint`): fails when the disassembly of
# any given static library holds a fused multiply-add. The kernels build with
# -ffp-contract=off so that their x86-64-v3 clones round like the baseline
# ones and factors and solutions stay bitwise identical on every host
# (DESIGN.md §8); a fused vfmadd/vfmsub/vfnmadd/vfnmsub means that rule was
# lost. Exits 77 (skipped) where objdump is missing or a library is not
# x86-64 code.
#
# Usage: tools/check_no_fma.sh LIBRARY.a...
set -u
skip=77
if ! command -v objdump > /dev/null 2>&1; then
  echo "SKIP: objdump not found"
  exit "$skip"
fi
[ "$#" -gt 0 ] || { echo "usage: $0 LIBRARY.a..."; exit 2; }

fail=0
for lib in "$@"; do
  if [ ! -r "$lib" ]; then
    echo "FMA gate: cannot read $lib"
    exit 2
  fi
  if ! objdump -f "$lib" | grep -q 'file format elf64-x86-64'; then
    echo "SKIP: $lib is not x86-64 code"
    exit "$skip"
  fi
  hits=$(objdump -d --no-show-raw-insn "$lib" |
         grep -E '[[:space:]]vf(n)?m(add|sub)[0-9a-z]*[[:space:]]' || true)
  if [ -n "$hits" ]; then
    echo "FMA gate: $(printf '%s\n' "$hits" | wc -l) fused multiply-add" \
         "instruction(s) in $lib (build it with -ffp-contract=off):"
    printf '%s\n' "$hits" | head -5
    fail=1
  else
    echo "FMA gate: $lib holds no fused multiply-add"
  fi
done
exit "$fail"
