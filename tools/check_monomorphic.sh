#!/usr/bin/env bash
# Fail if per-cycle code calls the runtime's polymorphic comparison.
#
# Usage: bash tools/check_monomorphic.sh   (from the repository root)
#
# Builds the tree, then disassembles (objdump -dr) the native objects of
# lib/machine, lib/ring and lib/engine, and of Executor, Context,
# Signal_log, Depcheck, Interp and Memory. Every relocation to
# caml_{equal,notequal,lessthan,lessequal,greaterthan,greaterequal,compare}
# (which end in the C runtime's compare_val) or to Stdlib.min/max (the
# polymorphic versions) is a site: an int comparison that type inference
# left polymorphic. Each site is listed as module, function and symbol;
# the script exits 1 if there is any. There is no allowlist: cold sites
# are converted too, so the check stays a plain zero.
#
# Generic Hashtbl calls cannot be told from Hashtbl.Make calls by symbol
# name, so int-keyed tables are not checked here.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build 2>&1

objs=()
for lib in machine ring engine; do
  objs+=(_build/default/lib/"$lib"/.helix_"$lib".objs/native/*.o)
done
for m in Executor Context Signal_log Depcheck; do
  objs+=(_build/default/lib/core/.helix_core.objs/native/helix_core__"$m".o)
done
for m in Interp Memory; do
  objs+=(_build/default/lib/ir/.helix_ir.objs/native/helix_ir__"$m".o)
done

sites=0
for o in "${objs[@]}"; do
  [ -f "$o" ] || { echo "check_monomorphic: missing object $o" >&2; exit 2; }
  out=$(objdump -dr "$o" | awk -v obj="$(basename "$o" .o)" '
    /^[0-9a-f]+ <.*>:$/ { fn = $2; gsub(/[<>:]/, "", fn); next }
    /R_X86_64_/ && ($3 ~ /^caml_(equal|notequal|lessthan|lessequal|greaterthan|greaterequal|compare)([-+]|$)/ \
                    || $3 ~ /^camlStdlib\.(min|max)_[0-9]+([-+]|$)/) {
      sym = $3; sub(/[-+]0x[0-9a-f]+$/, "", sym)
      printf "%s\t%s\t%s\n", obj, fn, sym
    }')
  if [ -n "$out" ]; then
    printf '%s\n' "$out"
    sites=$((sites + $(printf '%s\n' "$out" | wc -l)))
  fi
done

if [ "$sites" -ne 0 ]; then
  echo "check_monomorphic: $sites polymorphic comparison site(s); compare ints with int-typed code (Int.max, Int.min, (a : int) < b)" >&2
  exit 1
fi
echo "check_monomorphic: 0 polymorphic comparison sites in ${#objs[@]} objects"
