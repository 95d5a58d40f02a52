#!/bin/sh
# Repo check: full build, test suite, audited test suite, encoding
# lint, and (when ocamlformat is available) a formatting gate.  Run
# from the repo root; exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all =="
dune build @all

# --force: in a tree where the tests already ran, plain runtest replays
# dune's cached results and the wall time would read 0 s.
echo "== dune runtest =="
runtest_start=$(date +%s)
dune runtest --force
echo "tier-1 dune runtest wall: $(( $(date +%s) - runtest_start )) s"

echo "== dune runtest (GRC_AUDIT=1) =="
GRC_AUDIT=1 dune runtest --force

# The qcheck suites honor QCHECK_SEED; the differential suite compares
# the attack, the relaxed certifier, full refinement, and two exact
# engines on the same random nets, so distinct seeds buy distinct nets.
echo "== differential suite under three fixed seeds =="
for seed in 1 42 20260806; do
  QCHECK_SEED="$seed" dune exec test/test_main.exe -- test differential
done

# The finite-difference gradient checks once failed on these seeds,
# whose draws put a ReLU kink within the difference step of a
# parameter; they guard the kink rule in test/test_nn.ml.
echo "== nn:gradients under the seeds that once hit a kink =="
for seed in 11 89 98 124 133 146 235 255 287; do
  QCHECK_SEED="$seed" dune exec test/test_main.exe -- test nn:gradients
done

echo "== grc lint (small auto-mpg encoding) =="
dune exec -- grc lint --family auto-mpg --id lint-ci --size 4,4 \
  --artifacts _build/lint-artifacts

echo "== grc lint --seed-fault must fail =="
if dune exec -- grc lint --family auto-mpg --id lint-ci --size 4,4 \
    --artifacts _build/lint-artifacts --seed-fault nan-coeff \
    >/dev/null 2>&1; then
  echo "seeded fault was not reported" >&2
  exit 1
fi

# A non-finite input must be a usage error, not an internal one.
echo "== grc certify --delta inf must fail cleanly =="
if inf_err=$(dune exec -- grc certify \
    --net _build/lint-artifacts/lint-ci.net --delta inf 2>&1); then
  echo "--delta inf was accepted" >&2
  exit 1
fi
if echo "$inf_err" | grep -q 'internal error'; then
  echo "--delta inf crashed: $inf_err" >&2
  exit 1
fi

# So must a non-positive socket timeout, rejected before any daemon is
# contacted (nothing listens on this socket).
echo "== grc sweep --timeout-s 0 must fail cleanly =="
to_rc=0
to_err=$(dune exec -- grc sweep --socket _build/grc-none.sock \
  --timeout-s 0 --deltas 0.001 --digest 0 2>&1) || to_rc=$?
if [ "$to_rc" -ne 124 ] || ! echo "$to_err" | grep -q -- '--timeout-s'; then
  echo "--timeout-s 0 did not fail as a usage error (exit $to_rc): $to_err" >&2
  exit 1
fi

# A daemon that is not there is a runtime failure, exit 1, which a
# script must be able to tell from a usage error (exit 124).
echo "== grc sweep against a missing daemon must exit 1 =="
nd_rc=0
nd_err=$(dune exec -- grc sweep --socket _build/grc-none.sock \
  --deltas 0.001 --digest 0 2>&1) || nd_rc=$?
if [ "$nd_rc" -ne 1 ]; then
  echo "unreachable daemon exited $nd_rc, not 1: $nd_err" >&2
  exit 1
fi

# So must a non-finite delta list, before any daemon is contacted, and
# a non-finite learning rate, before any training runs.
echo "== grc sweep --deltas nan must fail cleanly =="
if dn_err=$(dune exec -- grc sweep --socket _build/grc-none.sock \
    --deltas nan --digest 0 2>&1); then
  echo "--deltas nan was accepted" >&2
  exit 1
fi
if ! echo "$dn_err" | grep -q -- '--deltas'; then
  echo "--deltas nan did not fail as a usage error: $dn_err" >&2
  exit 1
fi
# And non-finite region endpoints, which would otherwise reach the
# daemon and fail there without naming the option.
echo "== grc sweep --regions=-inf:inf must fail cleanly =="
if rg_err=$(dune exec -- grc sweep --socket _build/grc-none.sock \
    --deltas 0.001 --regions=-inf:inf --digest 0 2>&1); then
  echo "--regions=-inf:inf was accepted" >&2
  exit 1
fi
if ! echo "$rg_err" | grep -q -- '--regions'; then
  echo "--regions=-inf:inf did not fail as a usage error: $rg_err" >&2
  exit 1
fi
# A nan connect timeout is a deadline no clock passes: the router must
# reject it up front instead of retrying the missing backend forever.
# The binary runs directly so that [timeout] stops the process itself.
echo "== grc shard --connect-timeout-s nan must fail cleanly =="
dune build bin/grc.exe
if ct_err=$(timeout 20 _build/default/bin/grc.exe shard \
    --socket _build/grc-shard-none.sock --backend _build/grc-none.sock \
    --connect-timeout-s nan 2>&1); then
  echo "--connect-timeout-s nan was accepted" >&2
  exit 1
fi
if ! echo "$ct_err" | grep -q -- '--connect-timeout-s'; then
  echo "--connect-timeout-s nan did not fail as a usage error: $ct_err" >&2
  exit 1
fi
# A stop signal while the router still waits for a backend ends the
# wait: a one-line message, no front socket.  Under --preserve-status
# a run killed by the KILL that follows five seconds on reports 137.
echo "== grc shard stopped while waiting for a backend must fail cleanly =="
rm -f _build/grc-shard-sig.sock
sig_rc=0
sig_err=$(timeout -s TERM --preserve-status -k 5 1 _build/default/bin/grc.exe \
  shard --socket _build/grc-shard-sig.sock --backend _build/grc-none.sock \
  --connect-timeout-s 5 2>&1) || sig_rc=$?
if [ "$sig_rc" -eq 0 ] || [ "$sig_rc" -eq 137 ]; then
  echo "grc shard under SIGTERM exited $sig_rc: $sig_err" >&2
  exit 1
fi
if echo "$sig_err" | grep -q 'internal error'; then
  echo "grc shard crashed under SIGTERM: $sig_err" >&2
  exit 1
fi
if [ -e _build/grc-shard-sig.sock ]; then
  echo "grc shard left its front socket behind" >&2
  exit 1
fi
echo "== grc train-robust --lr nan must fail cleanly =="
if lr_err=$(dune exec -- grc train-robust --family auto-mpg --id lint-ci \
    --size 4,4 --artifacts _build/lint-artifacts --lr nan 2>&1); then
  echo "--lr nan was accepted" >&2
  exit 1
fi
if ! echo "$lr_err" | grep -q -- '--lr'; then
  echo "--lr nan did not fail as a usage error: $lr_err" >&2
  exit 1
fi

echo "== audited certification sweep (GRC_AUDIT=1 grc certify) =="
GRC_AUDIT=1 dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001

echo "== audited parallel certification sweep (--domains 4) =="
GRC_AUDIT=1 dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --domains 4

echo "== audited symbolic bound (no looser than interval propagation) =="
# Under audit an empty meet between the backward substitution and the
# stored bounds is fatal; every output's bound must then be <= the
# interval-propagation bound of the same output.
GRC_AUDIT=1 dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --method symbolic \
  > _build/symbolic-ci.txt
dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --method interval \
  > _build/interval-ci.txt
if ! awk '/^output/ { if (FNR == NR) { sym[$2] = $NF + 0; ns++; next }
                      ni++; if (!($2 in sym) || sym[$2] > $NF + 0) bad = 1 }
          END { exit (bad || ns == 0 || ns != ni) }' \
    _build/symbolic-ci.txt _build/interval-ci.txt; then
  echo "symbolic bound looser than interval propagation:" >&2
  cat _build/symbolic-ci.txt _build/interval-ci.txt >&2
  exit 1
fi

echo "== certify parity (sequential and --domains 4) =="
# Domain parallelism must certify the epsilon the sequential run does.
seq_eps=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 | grep '^output')
par_eps=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --domains 4 \
  | grep '^output')
if [ "$seq_eps" != "$par_eps" ]; then
  echo "--domains 4 changed certified bounds:" >&2
  echo "  sequential: $seq_eps" >&2
  echo "  domains4:   $par_eps" >&2
  exit 1
fi

echo "== certification with dedup disabled matches =="
with_dedup=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 | grep '^output')
without_dedup=$(dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --no-dedup \
  | grep '^output')
if [ "$with_dedup" != "$without_dedup" ]; then
  echo "dedup changed certified bounds:" >&2
  echo "  with:    $with_dedup" >&2
  echo "  without: $without_dedup" >&2
  exit 1
fi

echo "== traced certification sweep (grc trace-check) =="
dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 \
  --trace _build/trace-ci.json
dune exec -- grc trace-check _build/trace-ci.json \
  --require certify --require plan.values --require executor.run \
  --require engine.query --require simplex.solve
dune exec -- grc certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 --domains 4 \
  --trace _build/trace-par-ci.json
dune exec -- grc trace-check _build/trace-par-ci.json \
  --require certify --require executor.worker --require simplex.solve

# Everything is already built; run the binary directly.  A backgrounded
# `dune exec` and a foreground one race for the dune lock, and the loser
# silently falls back to PATH resolution and dies.
grc=_build/default/bin/grc.exe

# wait_for SOCKET WHAT: poll a daemon or router until it answers a ping.
wait_for() {
  i=0
  until "$grc" submit --socket "$1" --ping >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
      echo "$2 did not come up" >&2
      exit 1
    fi
    sleep 0.2
  done
}

# sweep_matches_oneshot NET TSV: every cell of a grc sweep table must
# print the eps one-shot grc certify prints for it.
sweep_matches_oneshot() {
  while IFS="$(printf '\t')" read -r delta lo hi shard degraded cached eps; do
    case "$delta" in \#*) continue ;; esac
    want=$("$grc" certify --net "$1" --delta "$delta" --lo "$lo" --hi "$hi" \
      | sed -n 's/^output [0-9]*: eps <= //p' | tr '\n' ',' | sed 's/,$//')
    if [ "$eps" != "$want" ]; then
      echo "sweep cell (delta=$delta lo=$lo hi=$hi) drifted from one-shot:" >&2
      echo "  sweep:    $eps" >&2
      echo "  one-shot: $want" >&2
      exit 1
    fi
  done <"$2"
  grep -qv '^#' "$2" || {
    echo "sweep produced no cells" >&2
    exit 1
  }
}

echo "== train-robust smoke (tiny net, 3 epochs, certifier in the loop) =="
# Three robust epochs on a tiny auto-mpg net through the in-process
# certification daemon: the final certified eps must not exceed the
# initial one, and the unchanged-net re-check after training must be
# answered from the result cache.
tr_out=$("$grc" train-robust --family auto-mpg --id lint-ci --size 4,4 \
  --artifacts _build/lint-artifacts --epochs 3 --batch-size 16 \
  --lambda 0.01 --delta 0.05 --json _build/train-robust-ci.json)
echo "$tr_out"
eps0=$(echo "$tr_out" | sed -n 's/^initial eps //p')
eps1=$(echo "$tr_out" | sed -n 's/^final eps //p')
if [ -z "$eps0" ] || [ -z "$eps1" ]; then
  echo "train-robust did not report initial/final eps" >&2
  exit 1
fi
if ! awk -v a="$eps1" -v b="$eps0" 'BEGIN { exit !(a <= b) }'; then
  echo "robust training increased certified eps: $eps0 -> $eps1" >&2
  exit 1
fi
hits=$(echo "$tr_out" | sed -n 's|^recheck cache hits \([0-9]*\)/.*|\1|p')
cells=$(echo "$tr_out" | sed -n 's|^recheck cache hits [0-9]*/||p')
if [ -z "$hits" ] || [ "$hits" -eq 0 ] || [ "$hits" != "$cells" ]; then
  echo "unchanged-net re-check missed the cache ($hits/$cells hits)" >&2
  exit 1
fi
test -s _build/train-robust-ci.json

echo "== certification daemon smoke test =="
sock="_build/grc-ci.sock"
cachef="_build/grc-ci-cache.txt"
rm -f "$sock" "$cachef"
"$grc" serve --socket "$sock" --cache "$cachef" --workers 1 --metrics &
serve_pid=$!
cleanup_serve() {
  kill "$serve_pid" 2>/dev/null || true
}
trap cleanup_serve EXIT
wait_for "$sock" daemon
first=$("$grc" submit --socket "$sock" \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001)
echo "$first" | grep -q 'cached: false' || {
  echo "first submission unexpectedly cached" >&2
  exit 1
}
# the metrics registry is the daemon's only record of solve counts
lp_queries=$("$grc" submit --socket "$sock" --stats \
  | sed -n 's/.*"engine\.lp_queries":\([0-9]*\).*/\1/p')
if [ -z "$lp_queries" ] || [ "$lp_queries" -eq 0 ]; then
  echo "stats metrics report no engine.lp_queries after a solve" >&2
  exit 1
fi
second=$("$grc" submit --socket "$sock" \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001)
echo "$second" | grep -q 'cached: true' || {
  echo "second submission missed the result cache" >&2
  exit 1
}
oneshot=$("$grc" certify \
  --net _build/lint-artifacts/lint-ci.net --delta 0.001 | grep '^output')
if [ "$(echo "$first" | grep '^output')" != "$oneshot" ] \
  || [ "$(echo "$second" | grep '^output')" != "$oneshot" ]; then
  echo "daemon answers differ from one-shot certify:" >&2
  echo "  daemon:   $(echo "$first" | grep '^output')" >&2
  echo "  one-shot: $oneshot" >&2
  exit 1
fi
"$grc" submit --socket "$sock" --stats | grep -q '"hit_rate"' || {
  echo "stats payload missing cache hit rate" >&2
  exit 1
}
"$grc" submit --socket "$sock" --shutdown
wait "$serve_pid"
trap - EXIT
if [ -S "$sock" ]; then
  echo "daemon left its socket behind" >&2
  exit 1
fi

echo "== 2-shard router: parity sweep, failover, SIGTERM drain =="
s0="_build/grc-shard0.sock"
s1="_build/grc-shard1.sock"
front="_build/grc-front.sock"
shcache="_build/grc-shard-cache.txt"
rm -f "$s0" "$s1" "$front" "$shcache"
# two daemons appending to one cache file (equal keys hold equal answers)
"$grc" serve --socket "$s0" --workers 1 --cache "$shcache" &
d0_pid=$!
"$grc" serve --socket "$s1" --workers 1 --cache "$shcache" &
d1_pid=$!
router_pid=""
cleanup_shards() {
  kill "$d0_pid" "$d1_pid" 2>/dev/null || true
  [ -n "$router_pid" ] && kill "$router_pid" 2>/dev/null || true
}
trap cleanup_shards EXIT
wait_for "$s0" "shard daemon $s0"
wait_for "$s1" "shard daemon $s1"
"$grc" shard --socket "$front" --backend "$s0" --backend "$s1" &
router_pid=$!
wait_for "$front" "shard router"
# a sweep through the router must be bitwise one-shot certify, cell by cell
"$grc" sweep --socket "$front" --timeout-s 120 \
  --net _build/lint-artifacts/lint-ci.net \
  --deltas 0.001,0.002 --regions 0:0.5,0:1 \
  --json _build/sweep-ci.json >_build/sweep-ci.tsv
sweep_matches_oneshot _build/lint-artifacts/lint-ci.net _build/sweep-ci.tsv
# both shards must have taken cells (column 4 of the data rows)
shards_used=$(awk -F'\t' '!/^#/ { print $4 }' _build/sweep-ci.tsv \
  | sort -u | tr '\n' ' ')
if [ "$shards_used" != "0 1 " ]; then
  echo "sweep did not spread across both shards (used: $shards_used)" >&2
  exit 1
fi
# failover: freeze shard1 so its cells stay in flight, then kill it
# mid-sweep; every cell must still answer (retried on shard0) and the
# sweep must report degradation.  The sweep reuses the digest from the
# parity run rather than --net: a load would fan out to the frozen
# shard and block the client before any certify item is in flight.
sweep_digest=$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' _build/sweep-ci.json)
if [ -z "$sweep_digest" ]; then
  echo "could not extract digest from _build/sweep-ci.json" >&2
  exit 1
fi
kill -STOP "$d1_pid"
"$grc" sweep --socket "$front" --timeout-s 120 \
  --digest "$sweep_digest" \
  --deltas 0.001,0.002 --regions 0:0.5,0:1 \
  --json _build/sweep-failover.json >_build/sweep-failover.tsv &
sweep_pid=$!
sleep 1
kill -KILL "$d1_pid" 2>/dev/null || true
if ! wait "$sweep_pid"; then
  echo "failover sweep lost cells" >&2
  exit 1
fi
grep -q '"degraded":true' _build/sweep-failover.json || {
  echo "failover sweep did not report degradation" >&2
  exit 1
}
# answers must be identical to the healthy sweep despite the retries
healthy=$(awk -F'\t' '!/^#/ { print $1, $2, $3, $7 }' _build/sweep-ci.tsv)
failover=$(awk -F'\t' '!/^#/ { print $1, $2, $3, $7 }' _build/sweep-failover.tsv)
if [ "$healthy" != "$failover" ]; then
  echo "failover sweep drifted from the healthy sweep:" >&2
  echo "  healthy:  $healthy" >&2
  echo "  failover: $failover" >&2
  exit 1
fi
# the router drains cleanly on SIGTERM and removes its socket
kill -TERM "$router_pid"
wait "$router_pid" || {
  echo "router did not drain cleanly on SIGTERM" >&2
  exit 1
}
router_pid=""
if [ -S "$front" ]; then
  echo "router left its socket behind" >&2
  exit 1
fi
"$grc" submit --socket "$s0" --shutdown >/dev/null
wait "$d0_pid"
trap - EXIT

echo "== 2-shard router: throughput scaling (dnn3 grid, gate >= 1.60x) =="
# The same 16-cell dnn3 grid, cache bypassed, swept through a router in
# front of one and then two `grc serve --workers 1` processes.  grc
# sweep loads the net before it starts its clock, so the ratio of the
# two wall times is the throughput the second shard adds.  The gate
# needs a second core to scale onto; on one core it only reports.
"$grc" train --family auto-mpg --id dnn3 --size 8,8 \
  --artifacts _build/lint-artifacts >/dev/null
scale_front="_build/grc-scale.sock"
scale_pids=""
cleanup_scale() {
  [ -n "$scale_pids" ] && kill $scale_pids 2>/dev/null || true
}
trap cleanup_scale EXIT
for k in 1 2; do
  backends=""
  for j in $(seq "$k"); do
    sock_j="_build/grc-scale$j.sock"
    rm -f "$sock_j"
    "$grc" serve --socket "$sock_j" --workers 1 &
    scale_pids="$scale_pids $!"
    wait_for "$sock_j" "scaling daemon $sock_j"
    backends="$backends --backend $sock_j"
  done
  rm -f "$scale_front"
  "$grc" shard --socket "$scale_front" $backends &
  scale_pids="$scale_pids $!"
  wait_for "$scale_front" "scaling router"
  "$grc" sweep --socket "$scale_front" --timeout-s 120 --no-cache \
    --net _build/lint-artifacts/dnn3.net \
    --deltas 0.001,0.0015,0.002,0.0025 \
    --regions 0:0.5,0.25:0.75,0.5:1,0:1 \
    --json "_build/scale$k.json" >"_build/scale$k.tsv"
  kill -TERM $scale_pids
  wait $scale_pids 2>/dev/null || true
  scale_pids=""
done
trap - EXIT
sweep_matches_oneshot _build/lint-artifacts/dnn3.net _build/scale1.tsv
# the JSON tables carry exact float bits: both sweeps must agree bitwise
if [ "$(grep -o '"eps":\[[^]]*\]' _build/scale1.json)" \
  != "$(grep -o '"eps":\[[^]]*\]' _build/scale2.json)" ]; then
  echo "the 2-shard sweep drifted from the 1-shard sweep" >&2
  exit 1
fi
wall1=$(sed -n 's/.*"wall_s":\([0-9.eE+-]*\).*/\1/p' _build/scale1.json)
wall2=$(sed -n 's/.*"wall_s":\([0-9.eE+-]*\).*/\1/p' _build/scale2.json)
cores=$(nproc)
speedup=$(awk -v a="$wall1" -v b="$wall2" 'BEGIN { printf "%.2f", a / b }')
echo "1 shard ${wall1}s, 2 shards ${wall2}s: ${speedup}x ($cores cores)"
if [ "$cores" -ge 2 ] \
  && ! awk -v a="$wall1" -v b="$wall2" 'BEGIN { exit !(a / b >= 1.6) }'; then
  echo "2-shard throughput speedup ${speedup}x < 1.60x" >&2
  exit 1
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt check =="
  dune build @fmt
else
  echo "== dune fmt check skipped (ocamlformat not installed) =="
fi

echo "All checks passed."
