#!/usr/bin/env bash
# End-to-end hk_serve crash-recovery smoke (the CI serve-smoke job; runs
# locally too): start the daemon on the committed campus fixture with
# checkpointing on, query it over the socket with hk_cli, SIGKILL it,
# restart from the checkpoint, and assert the recovered daemon answers
# identically - the file-backed source replays with the applied prefix
# skipped, so a kill loses nothing. A mostly empty 4 MB HeavyKeeper rides
# along, so recovery decodes the sparse sketch format, and the checkpoint
# must take less than half that instance's memory. On the way it checks
# the daemon's limits: an overlong request line, the 256-connection cap, that
# thousands of short connections do not grow its address space, and that
# a threaded Sharded burst= far past its ring neither kills the daemon nor
# loses packets; and that a drained threaded Sharded instance leaves the
# daemon idle.
#
# usage: tests/serve_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
HK_SERVE="$REPO_DIR/$BUILD_DIR/hk_serve"
HK_CLI="$REPO_DIR/$BUILD_DIR/hk_cli"
FIXTURE="$REPO_DIR/tests/data/fixture_campus.pcap"

[ -x "$HK_SERVE" ] || { echo "missing $HK_SERVE (build examples first)"; exit 1; }
[ -x "$HK_CLI" ] || { echo "missing $HK_CLI"; exit 1; }
[ -f "$FIXTURE" ] || { echo "missing $FIXTURE"; exit 1; }

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

CKPT="$WORK/smoke.ckpt"

start_daemon() {
  # $@ = extra flags. Port 0 = ephemeral; parse the choice from the log.
  "$HK_SERVE" --port 0 --checkpoint "$CKPT" --interval-ms 100 "$@" \
    2>"$WORK/serve.log" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/serve.log")"
    [ -n "$PORT" ] && return 0
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.log"; echo "daemon died"; exit 1; }
    sleep 0.1
  done
  echo "daemon never reported its port"; cat "$WORK/serve.log"; exit 1
}

query() { "$HK_CLI" query --port "$PORT" "$@"; }

wait_ingest_done() {
  # $1 = instance name
  for _ in $(seq 1 100); do
    if query "STATS $1" | grep -q "STAT ingest_done 1"; then return 0; fi
    sleep 0.1
  done
  echo "ingest never finished"; query "STATS $1"; exit 1
}

echo "== first run: ingest the fixture, checkpoint, query =="
start_daemon --create "campus=SS:mem=24KB" --attach "campus=$FIXTURE,key=5tuple" \
  --create "sparse=HK-Minimum:mem=4MB" --attach "sparse=$FIXTURE,key=5tuple"
wait_ingest_done campus
wait_ingest_done sparse

query "PING" | grep -qx "OK pong"
query "LIST" | grep -q "^INSTANCE campus "
query "STATS campus" > "$WORK/stats_before.txt"
grep -q "STAT packets_applied " "$WORK/stats_before.txt"
PACKETS_BEFORE="$(sed -n 's/^STAT packets_applied //p' "$WORK/stats_before.txt")"
[ "$PACKETS_BEFORE" -gt 0 ] || { echo "no packets ingested"; exit 1; }
query "TOPK campus 10 exact" > "$WORK/topk_before.txt"
grep -q "^FLOW " "$WORK/topk_before.txt"
query "TOPK sparse 10 exact" > "$WORK/sparse_before.txt"
grep -q "^FLOW " "$WORK/sparse_before.txt"
query "CHECKPOINT" | grep -q "^OK checkpoint "
[ -f "$CKPT" ] || { echo "checkpoint file not written"; exit 1; }
# The fixture fills few of the sparse instance's buckets, and a checkpoint
# stores only the occupied ones.
SPARSE_MEMORY="$(query "STATS sparse" | sed -n 's/^STAT memory_bytes //p')"
CKPT_BYTES="$(stat -c %s "$CKPT")"
echo "checkpoint: $CKPT_BYTES bytes, sparse instance memory_bytes $SPARSE_MEMORY"
[ "$CKPT_BYTES" -lt $(( SPARSE_MEMORY / 2 )) ] || {
  echo "checkpoint of $CKPT_BYTES bytes is not under half of $SPARSE_MEMORY"; exit 1; }

echo "== one write of 100 POINTs, TOPK 10 and QUIT: 101 replies in order, then OK bye =="
# The daemon answers a pipelined burst with one send; the replies must be
# the ones the same requests get one at a time, in request order.
IDS=($(sed -n 's/^FLOW \([0-9a-f]*\) .*/\1/p' "$WORK/topk_before.txt"))
[ "${#IDS[@]}" -gt 0 ] || { echo "no flow ids in the TOPK answer"; exit 1; }
REQUESTS=()
for i in $(seq 0 99); do
  REQUESTS+=("POINT campus ${IDS[$((i % ${#IDS[@]}))]}")
done
REQUESTS+=("TOPK campus 10")
query "${REQUESTS[@]}" > "$WORK/pipelined_want.txt"
echo "OK bye" >> "$WORK/pipelined_want.txt"
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf '%s\n' "${REQUESTS[@]}" QUIT >&3
timeout 10 cat <&3 > "$WORK/pipelined_got.txt" || true
exec 3<&- 3>&-
REPLIES="$(grep -c -e '^OK ' -e '^END ' "$WORK/pipelined_got.txt" || true)"
[ "$REPLIES" -eq 102 ] || { echo "expected 101 replies and OK bye, got $REPLIES"; exit 1; }
diff "$WORK/pipelined_want.txt" "$WORK/pipelined_got.txt" || {
  echo "pipelined replies differ from one-at-a-time replies"; exit 1; }

echo "== a request line past the 64 KiB limit is refused, the daemon keeps serving =="
# 65537 bytes with no newline: the daemon answers ERR and hangs up instead
# of buffering the flood. The timeout turns a daemon that keeps reading
# into a failure rather than a hang.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
head -c 65537 /dev/zero | tr '\0' 'x' >&3
FLOOD_REPLY="$(timeout 10 head -n 1 <&3 || true)"
exec 3<&- 3>&-
[ "$FLOOD_REPLY" = "ERR request line longer than 65536 bytes" ] || {
  echo "overlong line not refused: '$FLOOD_REPLY'"; exit 1; }
query "PING" | grep -qx "OK pong"

echo "== 300 held connections: past 256 a client reads ERR, then service resumes =="
HELD=()
for i in $(seq 1 300); do
  exec {fd}<>"/dev/tcp/127.0.0.1/$PORT"
  HELD+=("$fd")
  if [ "$i" -le 256 ]; then
    printf 'PING\n' >&"$fd"
    read -r -t 5 LINE <&"$fd" || LINE=""
    [ "$LINE" = "OK pong" ] || { echo "connection $i not served: '$LINE'"; exit 1; }
  else
    read -r -t 5 LINE <&"$fd" || LINE=""
    [ "$LINE" = "ERR too many connections (limit 256)" ] || {
      echo "connection $i not refused: '$LINE'"; exit 1; }
  fi
done
for fd in "${HELD[@]}"; do
  exec {fd}>&-
done
REFUSED="$("$HK_CLI" metrics --port "$PORT" hk_serve_connections_refused_total |
  sed -n 's/^hk_serve_connections_refused_total //p')"
[ "${REFUSED:-0}" -ge 44 ] || { echo "refused counter at '${REFUSED}', want >= 44"; exit 1; }
# Each connection's thread notices its close on its own: retry briefly.
SERVED=""
for _ in $(seq 1 50); do
  if query "PING" 2>/dev/null | grep -qx "OK pong"; then SERVED=1; break; fi
  sleep 0.1
done
[ -n "$SERVED" ] || { echo "no PING answer after the held connections closed"; exit 1; }

echo "== 2000 connect/QUIT cycles: the daemon's VmSize stays put =="
vmsize_kb() { awk '/^VmSize:/ { print $2 }' "/proc/$SERVE_PID/status"; }
VM_BEFORE="$(vmsize_kb)"
for i in $(seq 1 2000); do
  exec {fd}<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'QUIT\n' >&"$fd"
  read -r -t 5 LINE <&"$fd" || LINE=""
  exec {fd}>&-
  [ "$LINE" = "OK bye" ] || { echo "cycle $i: '$LINE'"; exit 1; }
done
VM_GROWTH_KB=$(( $(vmsize_kb) - VM_BEFORE ))
[ "$VM_GROWTH_KB" -lt 1048576 ] || {
  echo "VmSize grew $VM_GROWTH_KB kB over 2000 connections"; exit 1; }

echo "== a threaded Sharded burst= far past its ring drains the fixture, the daemon keeps serving =="
# A worker never takes more than its ring holds, so the burst buffers are
# ring-sized and CREATE answers before any worker runs.
query "CREATE huge Sharded:n=1,threads=1,burst=100000000000,inner=HK-Minimum" |
  grep -qx "OK created huge"
query "ATTACH huge $FIXTURE key=5tuple" | grep -qx "OK attached huge"
HUGE_DONE=""
for _ in $(seq 1 100); do
  if query "STATS huge" | grep -q "STAT ingest_done 1"; then HUGE_DONE=1; break; fi
  sleep 0.1
done
[ -n "$HUGE_DONE" ] || { echo "the burst= instance never drained"; exit 1; }
HUGE_PACKETS="$(query "STATS huge" | sed -n 's/^STAT packets_applied //p')"
[ "$HUGE_PACKETS" = "$PACKETS_BEFORE" ] || {
  echo "burst= instance applied $HUGE_PACKETS of $PACKETS_BEFORE packets"; exit 1; }
# An exact TOPK waits until the worker has applied every queued packet.
query "TOPK huge 5 exact" | grep -q "^END consistency=exact"
query "PING" | grep -qx "OK pong"
query "DROP huge" | grep -qx "OK dropped huge"

echo "== METRICS: exposition sanity, layer coverage, monotone counters =="
# Threaded Sharded and Window instances so those layers' series register
# too (constructors register eagerly - the names show before any traffic).
query "CREATE shard Sharded:n=2,threads=1,inner=HK-Minimum" | grep -qx "OK created shard"
query "CREATE win Window:w=4,epoch=2000,inner=HK-Minimum" | grep -qx "OK created win"

"$HK_CLI" metrics --port "$PORT" > "$WORK/metrics1.txt"
# Valid exposition: every line is a comment or an hk_-prefixed sample.
if grep -qvE '^(# (HELP|TYPE) hk_|hk_)' "$WORK/metrics1.txt"; then
  echo "malformed exposition line:"; grep -vE '^(# (HELP|TYPE) hk_|hk_)' "$WORK/metrics1.txt"
  exit 1
fi
NAMES="$(grep -c '^# TYPE hk_' "$WORK/metrics1.txt")"
[ "$NAMES" -ge 15 ] || { echo "only $NAMES metric names (need >= 15)"; exit 1; }
# Every layer contributes at least one name: sketch core, summary stores,
# the worker rings, windowing, ingest, serve.
for prefix in hk_core_ hk_store_ hk_ring_ hk_window_ hk_ingest_ hk_serve_; do
  grep -q "^# TYPE $prefix" "$WORK/metrics1.txt" || {
    echo "no $prefix* metric registered"; exit 1; }
done
# The filter argument narrows by name prefix.
"$HK_CLI" metrics --port "$PORT" hk_serve_ > "$WORK/metrics_filtered.txt"
grep -q '^hk_serve_' "$WORK/metrics_filtered.txt"
if grep -q '^hk_core_' "$WORK/metrics_filtered.txt"; then
  echo "filter leaked non-matching series"; exit 1
fi

# Second scrape after more ingest traffic: every *_total counter present
# in both scrapes must be monotone, and the campus packet counter must
# have moved (the shard instance replays the same fixture).
query "ATTACH shard $FIXTURE key=5tuple" | grep -qx "OK attached shard"
for _ in $(seq 1 100); do
  if query "STATS shard" | grep -q "STAT ingest_done 1"; then break; fi
  sleep 0.1
done
"$HK_CLI" metrics --port "$PORT" > "$WORK/metrics2.txt"

# The drained shard instance's two workers sleep in their rings: over one
# idle second the daemon's user + system time (fields 14 and 15 of
# /proc/<pid>/stat, in clock ticks) stays under 20 ms.
cpu_ticks() { awk '{ print $14 + $15 }' "/proc/$SERVE_PID/stat"; }
sleep 0.2
TICKS_BEFORE="$(cpu_ticks)"
sleep 1
IDLE_CPU_MS=$(( ($(cpu_ticks) - TICKS_BEFORE) * 1000 / $(getconf CLK_TCK) ))
echo "idle daemon CPU: $IDLE_CPU_MS ms in 1 s"
[ "$IDLE_CPU_MS" -lt 20 ] || {
  echo "idle daemon used $IDLE_CPU_MS ms of CPU in one second with a drained Sharded instance"
  exit 1; }
awk 'NR==FNR { if ($1 ~ /_total(\{|$)/ && $1 !~ /^#/) before[$1] = $2; next }
     ($1 in before) && $2 + 0 < before[$1] + 0 {
       print "counter went backwards: " $1 " " before[$1] " -> " $2; bad = 1 }
     END { exit bad }' "$WORK/metrics1.txt" "$WORK/metrics2.txt" || {
  echo "counters not monotone across scrapes"; exit 1; }
P1="$(sed -n 's/^hk_ingest_packets_total{instance="shard"} //p' "$WORK/metrics2.txt")"
[ -n "$P1" ] && [ "$P1" -gt 0 ] || { echo "shard ingest counter never moved"; exit 1; }
query "DROP shard" | grep -qx "OK dropped shard"
query "DROP win" | grep -qx "OK dropped win"
# A periodic checkpoint may have captured the extra instances; rewrite the
# manifest so the recovery section below sees exactly campus and sparse.
query "CHECKPOINT" | grep -q "^OK checkpoint "

echo "== SIGKILL the daemon =="
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "== restart: recover from the checkpoint =="
start_daemon
grep -q "recovered 2 instance" "$WORK/serve.log" || {
  echo "recovery not reported"; cat "$WORK/serve.log"; exit 1; }
wait_ingest_done campus
wait_ingest_done sparse

query "TOPK campus 10 exact" > "$WORK/topk_after.txt"
PACKETS_AFTER="$(query "STATS campus" | sed -n 's/^STAT packets_applied //p')"

[ "$PACKETS_BEFORE" = "$PACKETS_AFTER" ] || {
  echo "packet offset lost across the kill: $PACKETS_BEFORE vs $PACKETS_AFTER"; exit 1; }
diff "$WORK/topk_before.txt" "$WORK/topk_after.txt" || {
  echo "recovered TOPK differs from the pre-kill answer"; exit 1; }
query "TOPK sparse 10 exact" > "$WORK/sparse_after.txt"
diff "$WORK/sparse_before.txt" "$WORK/sparse_after.txt" || {
  echo "recovered sparse TOPK differs from the pre-kill answer"; exit 1; }

echo "== clean shutdown over the wire =="
query "SHUTDOWN" | grep -q "^OK shutting down"
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVE_PID" 2>/dev/null && { echo "daemon ignored SHUTDOWN"; exit 1; }
SERVE_PID=""

echo "serve smoke passed: $PACKETS_BEFORE packets, recovery exact"
