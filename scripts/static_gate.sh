#!/bin/sh
# Static discipline gate (the @check alias).
#
# The project builds every library with all warnings promoted to
# errors; this script fails the build if that discipline is weakened
# instead of fixed, and keeps the abstraction boundary honest by
# requiring an explicit interface for every library module.
set -eu

fail() {
  echo "static gate: $*" >&2
  exit 1
}

# 1. The root env still promotes every warning to an error.
grep -q -- '-warn-error +a' dune ||
  fail "root dune env no longer carries '-warn-error +a'"

# 2. No library dune file quietly overrides the warning discipline.
for d in $(find lib -name dune); do
  if grep -Eq -- '(-w |warn-error)' "$d"; then
    fail "$d overrides the project-wide warning flags"
  fi
done

# 3. Every library module declares its interface.
missing=0
for f in $(find lib -name '*.ml'); do
  if [ ! -f "${f}i" ]; then
    echo "static gate: $f has no interface (.mli)" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] || fail "every lib/ module must have an .mli"

# 4. The telemetry plane observes the stack without depending on it.
# lib/obs may use only sim (the virtual clock), metrics (histograms,
# tables, JSON) and unix (host wall clock for Obs.Profile); gauge
# wiring against the instrumented layers lives in Faults.Campaign so
# the dependency arrow keeps pointing one way.  If sampling ever needs
# a protocol type, invert the gauge instead of adding the edge here.
obs_deps=$(sed -n 's/.*(libraries \([^)]*\)).*/\1/p' lib/obs/dune)
[ -n "$obs_deps" ] || fail "could not read the (libraries ...) stanza of lib/obs/dune"
for dep in $obs_deps; do
  case "$dep" in
    sim | metrics | unix) ;;
    *) fail "lib/obs depends on '$dep' — the telemetry plane may only use sim, metrics, unix" ;;
  esac
done

# 5. The telemetry plane's module surface is complete: losing any of
# these (e.g. a refactor that folds the sampler into the registry)
# silently removes a layer the SLO gates and host bench stand on.
for m in span ctx trace export registry timeseries slo profile; do
  [ -f "lib/obs/$m.mli" ] || fail "telemetry module lib/obs/$m.mli is missing"
done

# 6. The static verifier's module surface is complete: the abstract
# interpreter (verify), its interval domain, the finding vocabulary
# and the pipelining classifier are each load-bearing for the
# @protocheck gate — losing one silently narrows what the gate checks.
for m in interval finding verify pipesafe; do
  [ -f "lib/analysis/static/$m.mli" ] ||
    fail "static verifier module lib/analysis/static/$m.mli is missing"
done

# 7. Every CLI speaks the common reporting contract: a --json mode
# (self-validated, schema-versioned objects) and a --ci mode (assert
# expectations, nonzero exit on violation).  Grep is crude but catches
# the real failure mode — a new tool added without either flag.
for b in $(find bin -name '*.ml'); do
  grep -q '"json"' "$b" || fail "$b has no --json flag"
  grep -q '"ci"' "$b" || fail "$b has no --ci flag"
done

# 8. The scale-out surface is complete: the multi-switch fabric
# (switch, network) and the sharded name service's three-module split
# (map codec / control-plane reconciler / data-plane clerk) each carry
# the @shardsim gate — folding the reconciler into the clerk would
# quietly erase the control/data-plane boundary the design pins.
for m in switch network; do
  [ -f "lib/atm/$m.mli" ] || fail "fabric module lib/atm/$m.mli is missing"
done
for m in shardmap reconciler shard_clerk; do
  [ -f "lib/nameserver/$m.mli" ] ||
    fail "sharding module lib/nameserver/$m.mli is missing"
done

# 9. The data-structure suite's surface is complete and its dependency
# floor holds: lib/dds ships the probe scheme, the tag/kind/hook
# vocabulary, the call + data-plane substrates and all three
# structures, each behind an explicit interface, and may depend only on
# the transfer substrates (sim atm cluster metrics rmem amsg) — a
# structure that grew a dependency on the name service or the fault
# plane would no longer be the minimal DX-vs-RPC comparison the
# crossover gates measure.
for m in probe tag kind hook call plane hashtable queue register; do
  [ -f "lib/dds/$m.mli" ] || fail "data-structure module lib/dds/$m.mli is missing"
done
dds_deps=$(sed -n 's/.*(libraries \([^)]*\)).*/\1/p' lib/dds/dune)
[ -n "$dds_deps" ] || fail "could not read the (libraries ...) stanza of lib/dds/dune"
for dep in $dds_deps; do
  case "$dep" in
    sim | atm | cluster | metrics | rmem | amsg) ;;
    *) fail "lib/dds depends on '$dep' — the suite may only use sim, atm, cluster, metrics, rmem, amsg" ;;
  esac
done

# 10. The per-event core hashes no int key generically.  Firing an
# event, routing a frame, dispatching it, serving a remote-memory
# request (segment lookup, rights check) and staging a pipelined write
# run through these modules; a polymorphic table there probes with
# caml_hash and compare_val on every frame.  Int keys use arrays or
# Hashtbl.Make, so any use of Hashtbl other than that functor is
# refused here.
for f in lib/sim/engine.ml lib/sim/heap.ml lib/atm/switch.ml lib/atm/link.ml \
  lib/cluster/node.ml lib/amsg/amsg.ml lib/dds/call.ml lib/core/segment.ml \
  lib/core/remote_memory.ml lib/core/pipeline.ml; do
  [ -f "$f" ] || fail "event-core module $f is missing"
  if sed 's/Hashtbl\.Make//g' "$f" | grep -n 'Hashtbl' >&2; then
    fail "$f uses a generic Hashtbl on the per-event path — use an array or a Hashtbl.Make table"
  fi
done

# 11. The build compiles for speed under the same type discipline.  The
# root dune-workspace pins the release profile: dune's dev profile
# compiles libraries with -opaque, which turns every cross-module
# accessor on the per-frame path into a real call.  Release's :standard
# flags lack -strict-sequence and -strict-formats, so the root env must
# name both.  Comment lines are ignored: only a live stanza counts.
[ -f dune-workspace ] || fail "root dune-workspace is missing"
grep -v '^[[:space:]]*;' dune-workspace | grep -Eq '\(profile[[:space:]]+release\)' ||
  fail "dune-workspace no longer pins (profile release)"
for flag in -strict-sequence -strict-formats; do
  grep -v '^[[:space:]]*;' dune | grep -q -- "$flag" ||
    fail "root dune env no longer carries '$flag'"
done

# 12. The simulator core compares ints monomorphically.  Stdlib's
# compare, min and max are polymorphic functions: on ints they still
# call compare_val.  In lib/sim and lib/atm, use Int.compare/min/max
# (or a module's own monomorphic ones, such as Sim.Time.max).  Comments
# and string literals are blanked first; a definition of a module's own
# [compare]/[min]/[max] ([let max = Int.max]) is allowed.
strip_comments() {
  awk '
    BEGIN { depth = 0; instr = 0 }
    {
      line = $0; out = ""; n = length(line); i = 1
      while (i <= n) {
        c = substr(line, i, 1); d = substr(line, i, 2)
        if (instr) {
          if (c == "\\") { out = out "  "; i += 2; continue }
          if (c == "\"") instr = 0
          out = out " "; i++; continue
        }
        if (d == "(*") { depth++; out = out "  "; i += 2; continue }
        if (depth > 0 && d == "*)") { depth--; out = out "  "; i += 2; continue }
        if (c == "\"") { instr = 1; out = out " "; i++; continue }
        if (depth > 0) { out = out " "; i++; continue }
        if (c == "\047" && substr(line, i + 2, 1) == "\047") { out = out "   "; i += 3; continue }
        if (c == "\047" && substr(line, i + 1, 1) == "\\") {
          j = index(substr(line, i + 2), "\047")
          if (j > 0) { out = out sprintf("%*s", j + 2, ""); i += j + 2; continue }
        }
        out = out c; i++
      }
      print out
    }' "$1"
}
for f in $(find lib/sim lib/atm -name '*.ml'); do
  if strip_comments "$f" |
    sed -E 's/\b(let|val)[[:space:]]+(rec[[:space:]]+)?(compare|min|max)\b//g' |
    grep -nE "Stdlib\.(compare|min|max)\b|(^|[^A-Za-z0-9_.'~?])(compare|min|max)([^A-Za-z0-9_']|\$)" >&2; then
    fail "$f uses a polymorphic compare/min/max — use Int.compare/min/max"
  fi
done

echo "static gate: warn-error strict, $(find lib -name '*.ml' | wc -l) modules all covered by interfaces, obs dependency floor intact, static verifier surface complete, fabric + sharding surface complete, dds surface + dependency floor intact, event core free of generic Hashtbl, release profile pinned with strict flags, sim/atm free of polymorphic compare/min/max, $(find bin -name '*.ml' | wc -l) CLIs all speak --json/--ci"
