#!/bin/sh
# Flat PC-sampling profile of a native executable.
#
#   scripts/pcprof.sh -- EXE [ARGS...]
#
# Builds a small LD_PRELOAD sampler with the system C compiler, runs
# EXE ARGS under it, and prints two tables: the share of samples per
# symbol (top 40) and per module.  The sampler arms
# setitimer(ITIMER_PROF) at 1000 samples per second of CPU time; each
# SIGPROF records the interrupted program counter from the
# signal's ucontext.  At exit it writes the PCs and a copy of
# /proc/self/maps.  PCs inside EXE are symbolized with `nm -n` after
# subtracting EXE's load base (a PIE is mapped at a random address);
# PCs elsewhere are named after the library they fall in.
#
# Samples in perfbench's reference walk (symbols matching caml_ba_* or
# the Reference module) are excluded from the shares and counted on
# their own line: that kernel times the host, not the simulator.
#
# Example:
#   dune build ./perfbench/bench.exe
#   scripts/pcprof.sh -- _build/default/perfbench/bench.exe \
#     --workload dds_contended --seed 7 --seconds 5 --trace 0
#
# x86_64 and aarch64 Linux only.  Not part of any test alias.
set -eu

[ "${1:-}" = "--" ] && shift
[ $# -ge 1 ] || { echo "usage: $0 -- EXE [ARGS...]" >&2; exit 2; }
exe=$(readlink -f "$1")
[ -x "$exe" ] || { echo "pcprof: $1 is not an executable" >&2; exit 2; }

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

cat > "$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define CAP (1 << 22)
static unsigned long pcs[CAP];
static volatile unsigned long count;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  (void)sig; (void)info;
  ucontext_t *uc = ctx;
#if defined(__x86_64__)
  unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  unsigned long pc = uc->uc_mcontext.pc;
#else
#error "pcprof: unsupported architecture"
#endif
  if (count < CAP) pcs[count++] = pc;
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000; /* 1000 Hz */
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void finish(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *out = getenv("PCPROF_OUT");
  if (!out) return;
  char path[4096];
  snprintf(path, sizeof path, "%s.pcs", out);
  FILE *f = fopen(path, "w");
  if (!f) return;
  for (unsigned long i = 0; i < count; i++) fprintf(f, "%lx\n", pcs[i]);
  fclose(f);
  snprintf(path, sizeof path, "%s.maps", out);
  FILE *in = fopen("/proc/self/maps", "r");
  FILE *o = fopen(path, "w");
  if (in && o) {
    char buf[8192];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, in)) > 0) fwrite(buf, 1, n, o);
  }
  if (in) fclose(in);
  if (o) fclose(o);
}
EOF
cc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c"

PCPROF_OUT="$dir/run" LD_PRELOAD="$dir/sampler.so" "$@" >"$dir/stdout" ||
  echo "pcprof: $1 exited with status $?" >&2
[ -s "$dir/run.pcs" ] || { echo "pcprof: no samples recorded" >&2; exit 1; }

# A PIE's symbols are relative to its load base: the start of its
# offset-0 mapping.  A fixed-address executable's are absolute.
base=0
if readelf -h "$exe" | grep -q 'Type:.*DYN'; then
  base=$(awk -v exe="$exe" '$6 == exe && $3 == "00000000" { split($1, r, "-"); print r[1]; exit }' "$dir/run.maps")
  [ -n "$base" ] || { echo "pcprof: no load base for $exe in the maps dump" >&2; exit 1; }
fi
nm -n "$exe" | awk '$2 ~ /^[TtWw]$/ { print $1, $3 }' >"$dir/syms"

awk -v base="$base" -v exe="$exe" '
  function hex(s,    i, c, v) {
    v = 0
    s = tolower(s)
    for (i = 1; i <= length(s); i++) {
      c = index("0123456789abcdef", substr(s, i, 1)) - 1
      v = v * 16 + c
    }
    return v
  }
  # OCaml symbols are caml<Module>.<function>_<stamp>; dune prefixes
  # library modules with <lib>__ and executable ones with Dune__exe__.
  function module_of(sym,    m) {
    if (sym ~ /^caml_/ || sym !~ /^caml[A-Z]/) return "[runtime]"
    m = substr(sym, 5)
    sub(/\..*/, "", m)
    sub(/^Dune__exe__/, "", m)
    gsub(/__/, ".", m)
    return m
  }
  FILENAME ~ /syms$/ { n++; addr[n] = hex($1); name[n] = $2; next }
  FILENAME ~ /maps$/ {
    if (NF >= 6) {
      split($1, r, "-"); m++
      lo[m] = hex(r[1]); hi[m] = hex(r[2])
      lib[m] = $6; sub(/.*\//, "", lib[m])
      inexe[m] = ($6 == exe)
    }
    next
  }
  {
    pc = hex($1); total++
    where = "[unknown]"
    for (j = 1; j <= m; j++) if (pc >= lo[j] && pc < hi[j]) break
    if (j <= m && !inexe[j]) where = "[" lib[j] "]"
    else if (j <= m) {
      rel = pc - hex(base)
      a = 1; b = n; found = 0
      while (a <= b) {
        mid = int((a + b) / 2)
        if (addr[mid] <= rel) { found = mid; a = mid + 1 } else b = mid - 1
      }
      if (found) where = name[found]
    }
    if (where ~ /^caml_ba_/ || where ~ /^caml(Dune__exe__)?Reference\./) { excluded++; next }
    kept++
    sym[where]++
    mod[where ~ /^\[/ ? where : module_of(where)]++
  }
  END {
    printf "samples: %d total, %d in the reference walk (excluded), %d profiled\n", total, excluded, kept
    if (kept == 0) exit
    printf "\n%-8s %7s  %s\n", "share", "samples", "symbol"
    cmd = "sort -k2,2nr | head -n 40"
    for (s in sym) printf "%7.2f%% %7d  %s\n", 100 * sym[s] / kept, sym[s], s | cmd
    close(cmd)
    printf "\n%-8s %7s  %s\n", "share", "samples", "module"
    cmd = "sort -k2,2nr"
    for (s in mod) printf "%7.2f%% %7d  %s\n", 100 * mod[s] / kept, mod[s], s | cmd
    close(cmd)
  }
' "$dir/syms" "$dir/run.maps" "$dir/run.pcs"
