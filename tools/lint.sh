#!/usr/bin/env bash
# Static hygiene gate for src/ (wired as `ctest -L lint`).
#
# Greps for banned patterns and, when clang-format is installed, checks
# formatting drift with --dry-run. Grep checks strip // comments first so
# prose like "the new element" never trips the allocator ban.
#
# Banned in library code (src/):
#   * raw new/delete outside containers — RAII or std containers only.
#     Exception: src/capi, where the C boundary owns the handle by contract.
#   * rand()/srand() and default-seeded / random_device-seeded engines —
#     every RNG must take an explicit seed (util/rng.hpp) so experiments
#     and property tests are reproducible.
#   * std::cout/std::cerr in library code — libraries return Status or take
#     an ostream; only examples/, bench/ and tools may print.
set -u
cd "$(dirname "$0")/.."

fail=0

# Library sources with // comments and string literals stripped (block
# comments in this codebase never hold code-like text; literals would
# false-positive on diagnostics that *mention* banned calls).
sources() {
  find src -name '*.hpp' -o -name '*.cpp' | sort
}
# Blank every backslash-escape pair first: without it, an escaped quote like
# "uses \"new\" here" leaves `s/"[^"]*"//g` misaligned — the \" closes the
# literal early and text that is really *inside* the string survives to trip
# the grep bans (or worse, hides real code between adjacent literals).
strip_noise() {
  sed -e 's/\\./ /g' -e 's/"[^"]*"//g' -e 's|//.*||' "$1"
}

# An unreadable source must fail the gate, not silently skip: sed would emit
# nothing for it, so every ban below would vacuously pass on that file.
for f in $(sources); do
  if [ ! -r "$f" ]; then
    echo "LINT: cannot read $f; refusing to lint a partial tree"
    fail=1
  fi
done
[ "$fail" -ne 0 ] && { echo "lint: FAILED"; exit 1; }

ban() {
  local pattern="$1" why="$2" exclude="${3:-^$}"
  local hits=""
  for f in $(sources); do
    case "$f" in
      $exclude) continue ;;
    esac
    local h
    h=$(strip_noise "$f" | grep -nE "$pattern" | sed "s|^|$f:|") || true
    [ -n "$h" ] && hits="$hits$h"$'\n'
  done
  if [ -n "$hits" ]; then
    echo "LINT: banned pattern ($why):"
    printf '%s' "$hits"
    fail=1
  fi
}

ban '(^|[^_[:alnum:]])new[[:space:]]+[_[:alnum:]:]+[[:space:]]*[({[]' \
    'raw new outside containers' 'src/capi/*'
ban '(^|[^_[:alnum:]])delete[[:space:]]+[_[:alnum:]]' \
    'raw delete outside containers' 'src/capi/*'
ban '(^|[^_[:alnum:]])s?rand[[:space:]]*\(' \
    'rand()/srand(): use the seeded util/rng.hpp Rng'
ban 'random_device' \
    'non-deterministic seeding: every Rng takes an explicit seed'
ban 'mt19937' \
    'direct engine use: go through the explicitly-seeded util/rng.hpp Rng' \
    'src/util/rng.hpp'
ban 'std::(cout|cerr)' \
    'stdout/stderr printing in library code (return Status instead)'

# Precision hygiene (DESIGN.md §14): the numeric stack is templated on its
# value type, and src/kernels/precision.hpp is the single file allowed to
# spell a concrete floating-point type. A raw `double` anywhere else under
# src/kernels/ re-hardwires FP64 behind the template's back — new code must
# use the template parameter V or the control-data aliases (flops_t,
# seconds_t, metric_t, tolerance_t). Likewise a raw `float` in
# src/solver/solver.cpp: its one solve driver is templated on the factor
# value type, so a spelled-out FP32 type there is the start of a second,
# FP32-only solve body. Lines containing `template` are exempt (explicit
# instantiations must name both widths), and a multi-line explicit
# instantiation (`template Status f<double>(...` wrapped by clang-format)
# stays exempt until its closing `;`.
raw_type_hits() {  # raw_type_hits TYPE FILE...
  local type="$1" f h
  shift
  for f in "$@"; do
    h=$(strip_noise "$f" | awk -v t="$type" '
      skip { if (index($0, ";")) skip = 0; next }
      /template/ {
        if ($0 ~ /^template [^<]/ && !index($0, ";")) skip = 1
        next
      }
      $0 ~ ("(^|[^_[:alnum:]])" t "([^_[:alnum:]]|$)") {
        printf "%d:%s\n", FNR, $0
      }
    ' | sed "s|^|$f:|") || true
    [ -n "$h" ] && printf '%s\n' "$h"
  done
}
prec_hits=$(raw_type_hits double $(find src/kernels -name '*.hpp' -o \
              -name '*.cpp' | grep -v '^src/kernels/precision.hpp$' | sort))
if [ -n "$prec_hits" ]; then
  echo "LINT: raw double in src/kernels/ outside precision.hpp (use the" \
       "value-type template parameter or the control-data aliases):"
  printf '%s\n' "$prec_hits"
  fail=1
fi
fp32_hits=$(raw_type_hits float src/solver/solver.cpp)
if [ -n "$fp32_hits" ]; then
  echo "LINT: raw float in src/solver/solver.cpp (route FP32 work through" \
       "the value-type-generic solve driver, not an FP32 twin):"
  printf '%s\n' "$fp32_hits"
  fail=1
fi

# Snapshot wire-format gate: the checkpoint format constants and the tagged
# field registry must agree with tools/snapshot_format.lock. Growing or
# reordering fields without bumping the version would make old snapshot
# files misparse instead of being rejected; the lock forces the bump to be
# a conscious, reviewed edit in both places.
lock=tools/snapshot_format.lock
if [ -f "$lock" ]; then
  lock_version=$(sed -n 's/^version=//p' "$lock")
  lock_fields=$(sed -n 's/^fields=//p' "$lock")
  hdr_version=$(sed -n 's/.*kSnapshotFormatVersion = \([0-9]*\).*/\1/p' \
                    src/io/snapshot.hpp)
  hdr_fields=$(sed -n 's/.*kSnapshotFieldCount = \([0-9]*\).*/\1/p' \
                   src/io/snapshot.hpp)
  reg_fields=$(grep -c '^SNAPSHOT_FIELD(' src/io/snapshot.cpp)
  if [ "$hdr_version" != "$lock_version" ]; then
    echo "LINT: snapshot format version $hdr_version (src/io/snapshot.hpp)" \
         "disagrees with tools/snapshot_format.lock ($lock_version);" \
         "update the lock only together with a reviewed format change"
    fail=1
  fi
  if [ "$hdr_fields" != "$lock_fields" ] || [ "$reg_fields" != "$lock_fields" ]; then
    echo "LINT: snapshot field registry changed (header declares" \
         "$hdr_fields, registry has $reg_fields, lock records $lock_fields):" \
         "bump kSnapshotFormatVersion and tools/snapshot_format.lock together"
    fail=1
  fi
else
  echo "LINT: tools/snapshot_format.lock is missing"
  fail=1
fi

# StatusCode naming gate: every enumerator in util/status.hpp must have a
# `case StatusCode::kX:` in to_string. A code without a stable name prints
# as "unknown" in every diagnostic that reaches a user, so adding an
# enumerator forces extending the switch in the same edit.
status_hdr=src/util/status.hpp
enum_codes=$(sed -n '/^enum class StatusCode/,/^};/p' "$status_hdr" \
               | sed -e 's|//.*||' \
               | grep -oE '\bk[A-Z][A-Za-z0-9]*\b' | sort -u)
named_codes=$(sed -e 's|//.*||' "$status_hdr" \
               | grep -oE 'case StatusCode::k[A-Za-z0-9]+' \
               | sed 's/.*StatusCode:://' | sort -u)
missing=$(comm -23 <(printf '%s\n' "$enum_codes") \
                   <(printf '%s\n' "$named_codes"))
stale=$(comm -13 <(printf '%s\n' "$enum_codes") \
                 <(printf '%s\n' "$named_codes"))
if [ -n "$missing" ]; then
  echo "LINT: StatusCode enumerator(s) without a to_string case:" $missing
  fail=1
fi
if [ -n "$stale" ]; then
  echo "LINT: to_string names StatusCode(s) the enum no longer declares:" \
       $stale
  fail=1
fi

# C API error-code mapping gate: every StatusCode must also map to a
# pangulu_status in pangulu_c.cpp's set_status switch — a new code without a
# C mapping silently degrades to PANGULU_INTERNAL at the C boundary. kOk is
# handled by set_status's early is_ok() return, not a case label.
capi_src=src/capi/pangulu_c.cpp
capi_codes=$(sed -e 's|/\*.*\*/||' -e 's|//.*||' "$capi_src" \
               | grep -oE 'case StatusCode::k[A-Za-z0-9]+' \
               | sed 's/.*StatusCode:://' | sort -u)
capi_missing=$(comm -23 <(printf '%s\n' "$enum_codes" | grep -v '^kOk$') \
                        <(printf '%s\n' "$capi_codes"))
capi_stale=$(comm -13 <(printf '%s\n' "$enum_codes") \
                      <(printf '%s\n' "$capi_codes"))
if [ -n "$capi_missing" ]; then
  echo "LINT: StatusCode enumerator(s) without a C API mapping in" \
       "$capi_src:" $capi_missing
  fail=1
fi
if [ -n "$capi_stale" ]; then
  echo "LINT: $capi_src maps StatusCode(s) the enum no longer declares:" \
       $capi_stale
  fail=1
fi

# Environment-variable table gate: the set of quoted "PANGULU_*" names the
# code reads (src/, bench/, perfbench/, examples/) must equal the set of
# variables in README.md's table, so a new knob cannot ship undocumented and
# a deleted one cannot linger in the docs.
code_vars=$(grep -rhoE '"PANGULU_[A-Z0-9_]+"' src bench perfbench examples \
              | tr -d '"' | sort -u)
doc_vars=$(grep -oE '^\| `PANGULU_[A-Z0-9_]+`' README.md \
             | grep -oE 'PANGULU_[A-Z0-9_]+' | sort -u)
undocumented=$(comm -23 <(printf '%s\n' "$code_vars") \
                        <(printf '%s\n' "$doc_vars"))
unread=$(comm -13 <(printf '%s\n' "$code_vars") \
                  <(printf '%s\n' "$doc_vars"))
if [ -n "$undocumented" ]; then
  echo "LINT: environment variable(s) read by the code but missing from" \
       "README.md's table:" $undocumented
  fail=1
fi
if [ -n "$unread" ]; then
  echo "LINT: README.md's table lists variable(s) no code reads:" $unread
  fail=1
fi

# Documented-option gate: every `Options::x`, `solver::Options::x`,
# `SimOptions::x` or `ModelOptions::x` that README.md, DESIGN.md or
# EXPERIMENTS.md names must be a member of that struct, so deleting a field
# cannot leave the docs describing a knob that no longer exists.
struct_members() {  # struct_members STRUCT HEADER: names declared at depth 1
  sed -e 's|//.*||' "$2" | awk -v s="$1" '
    !inside { if ($0 ~ ("^struct " s " \\{")) { inside = 1; depth = 1 }; next }
    {
      line = $0
      if (depth == 1 && line ~ /[A-Za-z_]/) {
        if (match(line, /^ *struct +[A-Za-z_][A-Za-z0-9_]*/)) {
          d = substr(line, RSTART, RLENGTH); sub(/^ *struct +/, "", d)
        } else {
          d = line
          while (gsub(/<[^<>]*>/, "", d)) {}
          sub(/ *[=;{].*/, "", d)
          if (index(d, "(")) d = substr(d, 1, index(d, "(") - 1)
          sub(/[^A-Za-z0-9_]+$/, "", d)
          if (match(d, /[A-Za-z_][A-Za-z0-9_]*$/)) d = substr(d, RSTART)
          else d = ""
        }
        if (d != "") print d
      }
      depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
      if (depth <= 0) exit
    }'
}
opt_fail=0
for spec in Options:src/solver/solver.hpp SimOptions:src/runtime/sim.hpp \
            ModelOptions:src/analysis/model_check.hpp; do
  st=${spec%%:*} hdr=${spec#*:}
  members=$(struct_members "$st" "$hdr")
  if [ -z "$members" ]; then
    echo "LINT: cannot find struct $st in $hdr for the documented-option gate"
    opt_fail=1
    continue
  fi
  while IFS=: read -r doc name; do
    [ -z "$name" ] && continue
    field=${name##*::}
    if ! printf '%s\n' "$members" | grep -qx "$field"; then
      echo "LINT: $doc names $name, which is not a member of $st ($hdr)"
      opt_fail=1
    fi
  done < <(grep -oE "(^|[^A-Za-z0-9_:])([a-z]+::)?$st::[A-Za-z_][A-Za-z0-9_]*" \
             README.md DESIGN.md EXPERIMENTS.md \
           | sed -E 's/:[^A-Za-z_]?([a-z]+::)?/:\1/' | sort -u)
done
[ "$opt_fail" -ne 0 ] && fail=1

# Documented-enumerator gate: every `FillReducing::kX` that README.md,
# DESIGN.md or EXPERIMENTS.md names must be an enumerator of
# src/ordering/reorder.hpp, so renaming or dropping an ordering cannot leave
# the docs naming one that no longer exists.
fr_members=$(sed -e 's|//.*||' src/ordering/reorder.hpp \
  | awk '/^enum class FillReducing \{/ { inside = 1; next }
         inside && /\}/ { exit }
         inside' \
  | grep -oE '\bk[A-Za-z0-9_]+')
if [ -z "$fr_members" ]; then
  echo "LINT: cannot find enum FillReducing in src/ordering/reorder.hpp"
  fail=1
fi
while IFS=: read -r doc name; do
  [ -z "$name" ] && continue
  if ! printf '%s\n' "$fr_members" | grep -qx "${name##*::}"; then
    echo "LINT: $doc names $name, which src/ordering/reorder.hpp does not declare"
    fail=1
  fi
done < <(grep -oE "FillReducing::k[A-Za-z0-9_]+" README.md DESIGN.md EXPERIMENTS.md \
         | sort -u)

# Header self-containment: every public header must compile standalone —
# include-what-you-use at the granularity that actually bites, since a header
# that leans on its includer's includes breaks the first new call site that
# includes it alone. Compiled with the same standard the build uses.
hdr_fail=0
while IFS= read -r h; do
  if ! printf '#include "%s"\n' "${h#src/}" \
       | c++ -std=c++20 -fsyntax-only -I src -x c++ - 2>/tmp/lint_hdr.$$; then
    echo "LINT: header $h is not self-contained:"
    sed 's/^/  /' /tmp/lint_hdr.$$
    hdr_fail=1
  fi
done < <(find src -name '*.hpp' | sort)
rm -f /tmp/lint_hdr.$$
[ "$hdr_fail" -ne 0 ] && fail=1

# Deeper static analysis, when the toolchain carries clang-tidy. The curated
# profile lives in .clang-tidy (zero-warning baseline; WarningsAsErrors '*').
# Prefer the build tree's real compile commands; fall back to the flags the
# build would use so the gate still runs on a clean checkout.
if command -v clang-tidy >/dev/null 2>&1; then
  tidy_db=""
  for d in build*/; do
    [ -f "${d}compile_commands.json" ] && tidy_db="${d%/}" && break
  done
  if [ -n "$tidy_db" ]; then
    tidy_cmd=(clang-tidy --quiet -p "$tidy_db")
    tidy_tail=()
  else
    tidy_cmd=(clang-tidy --quiet)
    tidy_tail=(-- -std=c++20 -Isrc)
  fi
  if ! "${tidy_cmd[@]}" $(find src -name '*.cpp' | sort) \
       "${tidy_tail[@]}" 2>/dev/null; then
    echo "LINT: clang-tidy reports findings (see above); the baseline is" \
         "zero warnings — fix or suppress with rationale in .clang-tidy"
    fail=1
  fi
else
  echo "note: clang-tidy not installed; static-analysis check skipped"
fi

# Formatting drift, when the toolchain carries clang-format.
if command -v clang-format >/dev/null 2>&1; then
  if ! clang-format --dry-run --Werror $(sources) 2>/dev/null; then
    echo "LINT: clang-format --dry-run reports drift (see above)"
    fail=1
  fi
else
  echo "note: clang-format not installed; formatting check skipped"
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK ($(sources | wc -l) files checked)"
