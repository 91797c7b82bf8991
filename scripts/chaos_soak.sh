#!/usr/bin/env bash
# Fail-stop chaos soak: repeatedly run the CLI chaos decks with
# `--inject comm.rank_kill=<ordinal>` at a different protocol phase each
# iteration and require every run to (a) finish inside a wall-clock
# watchdog — a hung detector is the classic fail-stop bug — and
# (b) report exactly one survived rank failure.
#
# Four phases:
#   A. full-epoch shrink schedules (tools/chaos_deck.tkmc, no spares) with
#      a background `comm.corrupt` probability, so ARQ retransmission and
#      fail-stop detection are exercised together; ordinals sweep fold,
#      ghost exchange, and both phases of the two-phase commit.
#   B. delta-cadence grow schedules (tools/chaos_delta_deck.tkmc:
#      checkpoint_mode delta, max_delta_chain 3, spare_ranks 1) — the
#      kill must be absorbed by re-admitting the spare, not by shrinking.
#   C. kills aimed inside the consolidating full epoch's two-phase commit
#      (the delta-GC window), where a torn consolidation would strand
#      readers on a superseded chain.
#   D. remote node-loss schedules (tools/chaos_remote_deck.tkmc): each
#      run streams its epochs to a remote shard store, survives a kill,
#      and then loses local shards outright (one rank's shard from every
#      epoch, or the whole newest epoch directory). The follow-up resume
#      (tools/chaos_remote_resume_deck.tkmc) must heal from the remote
#      copy and stay bit-identical to a resume from an intact local tree.
#
# Every run that commits checkpoints also passes `tkmc_shardctl verify`
# (local + remote CRC audit against manifests and placement maps) as a
# post-run invariant.
#
# On the first failing schedule the summary line reports its label, seed,
# ordinal, and exit code, and the script exits with that code.
#
# Usage:
#   scripts/chaos_soak.sh [iterations] [timeout-seconds]
# Defaults: 20 phase-A iterations, 60 s watchdog per run. The binary is
# taken from $BUILD_DIR (default: build).
set -euo pipefail
cd "$(dirname "$0")/.."

ITERATIONS=${1:-20}
WATCHDOG=${2:-60}
BUILD_DIR=${BUILD_DIR:-build}
BIN="$BUILD_DIR/tools/tensorkmc"
BLACKBOX="$BUILD_DIR/tools/tkmc_blackbox"
SHARDCTL="$BUILD_DIR/tools/tkmc_shardctl"
FULL_DECK=tools/chaos_deck.tkmc
DELTA_DECK=tools/chaos_delta_deck.tkmc
REMOTE_DECK=tools/chaos_remote_deck.tkmc
REMOTE_RESUME_DECK=tools/chaos_remote_resume_deck.tkmc

if [ ! -x "$BIN" ] || [ ! -x "$BLACKBOX" ] || [ ! -x "$SHARDCTL" ]; then
  echo "chaos_soak: $BIN, $BLACKBOX or $SHARDCTL not built (run cmake --build $BUILD_DIR first)" >&2
  exit 1
fi

# Protocol sends per cycle on the decks' 2x2x1 grid with cadence-1
# checkpoints: fold 4x3 + halo 4x3 frames (one per adjacent rank, empty
# ones included) + 3 commit votes + 3 commit acks. The kill ordinals below
# derive from it; test_ghost_exchange pins it against a real engine.
SENDS_PER_CYCLE=30
# Kill-ordinal spread of phases A, B and D: ~3 cycles of traffic.
SPREAD=$((3 * SENDS_PER_CYCLE - 4))

WORK=$(mktemp -d "${TMPDIR:-/tmp}/tkmc_chaos.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

TOTAL=0

fail_summary() {  # label seed ordinal exit-code
  echo "chaos_soak: summary: FAILED first-failing-schedule=$1 seed=$2 ordinal=$3 exit=$4" >&2
  exit "$4"
}

run_schedule() {  # label deck seed ordinal shrink|grow [extra --inject args]
  local label=$1 deck=$2 seed=$3 ordinal=$4 mode=$5
  shift 5
  local run_dir="$WORK/$label"
  mkdir -p "$run_dir"
  local log="$run_dir/log.txt" status=0
  (cd "$run_dir" && timeout "$WATCHDOG" \
      "$OLDPWD/$BIN" -in "$OLDPWD/$deck" --telemetry telemetry \
      --inject comm.rank_kill="$ordinal" "$@" --inject-seed "$seed") \
      > "$log" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    echo "chaos_soak: $label (ordinal $ordinal) FAILED (exit $status)" >&2
    [ "$status" -eq 124 ] && echo "chaos_soak: $label HUNG past watchdog" >&2
    tail -20 "$log" >&2
    fail_summary "$label" "$seed" "$ordinal" "$status"
  fi
  if ! grep -q "survived 1 rank fail-stop" "$log"; then
    echo "chaos_soak: $label (ordinal $ordinal) did not survive a kill" >&2
    tail -20 "$log" >&2
    fail_summary "$label" "$seed" "$ordinal" 3
  fi
  if [ "$mode" = grow ] && ! grep -q "1 grow recover" "$log"; then
    echo "chaos_soak: $label (ordinal $ordinal) shrank despite a spare rank" >&2
    tail -20 "$log" >&2
    fail_summary "$label" "$seed" "$ordinal" 4
  fi
  # Every survived kill must leave a decodable post-mortem: the engine
  # dumps the flight recorder on RankFailure, and tkmc_blackbox must be
  # able to merge the per-rank dumps into one causal timeline.
  if ! ls "$run_dir"/telemetry/blackbox_rank*.bin > /dev/null 2>&1; then
    echo "chaos_soak: $label (ordinal $ordinal) left no blackbox dumps" >&2
    fail_summary "$label" "$seed" "$ordinal" 5
  fi
  if ! "$BLACKBOX" merge "$run_dir/telemetry" --tail 3 > "$run_dir/blackbox.txt" 2>&1; then
    echo "chaos_soak: $label (ordinal $ordinal) blackbox decode FAILED" >&2
    cat "$run_dir/blackbox.txt" >&2
    fail_summary "$label" "$seed" "$ordinal" 6
  fi
  # Post-run invariant: every committed epoch — local and, when the run
  # streamed one, remote — must pass the shardctl CRC audit.
  if [ -d "$run_dir/chaos_ckpt" ]; then
    local remote_args=()
    [ -d "$run_dir/remote_ckpt" ] && remote_args=(--remote "$run_dir/remote_ckpt")
    if ! "$SHARDCTL" verify "$run_dir/chaos_ckpt" ${remote_args[@]+"${remote_args[@]}"} \
        > "$run_dir/shardctl.txt" 2>&1; then
      echo "chaos_soak: $label (ordinal $ordinal) shardctl verify FAILED" >&2
      cat "$run_dir/shardctl.txt" >&2
      fail_summary "$label" "$seed" "$ordinal" 7
    fi
  fi
  local epochs
  epochs=$(ls "$run_dir/chaos_ckpt" 2>/dev/null | grep -c '^epoch_' || true)
  echo "    $label: ordinal $ordinal survived ($epochs epochs committed)"
  TOTAL=$((TOTAL + 1))
}

echo "==> chaos soak: fault-point catalog sanity (--inject list)"
if ! "$BIN" --inject list | grep -q "comm.rank_kill"; then
  echo "chaos_soak: --inject list does not register comm.rank_kill" >&2
  exit 1
fi

echo "==> phase A: $ITERATIONS full-epoch shrink schedules (${WATCHDOG}s watchdog each)"
for i in $(seq 1 "$ITERATIONS"); do
  # Deterministic ordinal spread over ~3 cycles of protocol traffic,
  # hitting every phase over the sweep; the seed varies the rank the
  # ordinal lands on.
  ordinal=$((1 + (i * 37) % SPREAD))
  run_schedule "full_$i" "$FULL_DECK" "$i" "$ordinal" shrink \
      --inject comm.corrupt=p0.005
done

echo "==> phase B: delta-cadence grow schedules"
for i in $(seq 1 6); do
  ordinal=$((5 + (i * 31) % SPREAD))
  run_schedule "delta_$i" "$DELTA_DECK" "$((100 + i))" "$ordinal" grow
done

echo "==> phase C: kills inside the consolidating commit"
# With max_delta_chain 3 the first consolidating full epoch is epoch 4,
# committed at the end of cycle 4: the last six sends of that cycle are
# its three commit votes and three acks, ordinals 4*S-5 .. 4*S (115..120
# at S = 30; no background corruption here, so ordinals stay aligned).
for k in 5 4 3 2 1 0; do
  ordinal=$((4 * SENDS_PER_CYCLE - k))
  run_schedule "consolidate_$ordinal" "$DELTA_DECK" "$((200 + ordinal))" \
      "$ordinal" grow
done

echo "==> phase D: $ITERATIONS remote node-loss schedules"
for i in $(seq 1 "$ITERATIONS"); do
  ordinal=$((3 + (i * 41) % SPREAD))
  seed=$((300 + i))
  run_schedule "remote_$i" "$REMOTE_DECK" "$seed" "$ordinal" grow
  run_dir="$WORK/remote_$i"
  # The kill-surviving run must have mirrored every epoch it committed.
  if ! grep -q "remote streaming: .* 0 given up" "$run_dir/log.txt"; then
    echo "chaos_soak: remote_$i gave up streaming epochs" >&2
    grep "remote streaming" "$run_dir/log.txt" >&2 || true
    fail_summary "remote_$i" "$seed" "$ordinal" 8
  fi
  # Twin trees: a keeps the local checkpoints intact; b suffers the node
  # loss — even iterations lose one rank's shard from every epoch, odd
  # iterations lose the whole newest epoch directory.
  for t in a b; do
    mkdir -p "$run_dir/$t"
    cp -r "$run_dir/chaos_ckpt" "$run_dir/$t/chaos_ckpt"
    cp -r "$run_dir/remote_ckpt" "$run_dir/$t/remote_ckpt"
  done
  if [ $((i % 2)) -eq 0 ]; then
    rm -f "$run_dir/b/chaos_ckpt"/epoch_*/"rank_$((i % 4)).tkc"
  else
    newest=$(ls "$run_dir/b/chaos_ckpt" | grep '^epoch_' | sort -t_ -k2 -n | tail -1)
    rm -rf "$run_dir/b/chaos_ckpt/$newest"
  fi
  for t in a b; do
    status=0
    (cd "$run_dir/$t" && timeout "$WATCHDOG" \
        "$OLDPWD/$BIN" -in "$OLDPWD/$REMOTE_RESUME_DECK") \
        > "$run_dir/$t/log.txt" 2>&1 || status=$?
    if [ "$status" -ne 0 ]; then
      echo "chaos_soak: remote_$i resume ($t) FAILED (exit $status)" >&2
      tail -20 "$run_dir/$t/log.txt" >&2
      fail_summary "remote_${i}_resume_$t" "$seed" "$ordinal" "$status"
    fi
    if ! grep -q "resumed from checkpoint epoch" "$run_dir/$t/log.txt"; then
      echo "chaos_soak: remote_$i resume ($t) started fresh instead of resuming" >&2
      tail -20 "$run_dir/$t/log.txt" >&2
      fail_summary "remote_${i}_resume_$t" "$seed" "$ordinal" 9
    fi
    if ! "$SHARDCTL" verify "$run_dir/$t/chaos_ckpt" --remote "$run_dir/$t/remote_ckpt" \
        > "$run_dir/$t/shardctl.txt" 2>&1; then
      echo "chaos_soak: remote_$i resume ($t) shardctl verify FAILED" >&2
      cat "$run_dir/$t/shardctl.txt" >&2
      fail_summary "remote_${i}_resume_$t" "$seed" "$ordinal" 10
    fi
  done
  # The damaged twin must have pulled the lost shards from the remote
  # copy, and from there on be indistinguishable from the intact twin:
  # identical trajectory (wall time stripped) and a bit-identical
  # checkpoint tree.
  if ! grep -q "remote store: healed" "$run_dir/b/log.txt"; then
    echo "chaos_soak: remote_$i damaged twin resumed without a remote heal" >&2
    tail -20 "$run_dir/b/log.txt" >&2
    fail_summary "remote_${i}_heal" "$seed" "$ordinal" 11
  fi
  a_done=$(grep '^done:' "$run_dir/a/log.txt" | sed 's/, [0-9.]* s wall//')
  b_done=$(grep '^done:' "$run_dir/b/log.txt" | sed 's/, [0-9.]* s wall//')
  if [ -z "$a_done" ] || [ "$a_done" != "$b_done" ]; then
    echo "chaos_soak: remote_$i twins diverged: a='$a_done' b='$b_done'" >&2
    fail_summary "remote_${i}_divergence" "$seed" "$ordinal" 12
  fi
  if ! diff -r "$run_dir/a/chaos_ckpt" "$run_dir/b/chaos_ckpt" > /dev/null; then
    echo "chaos_soak: remote_$i healed tree is not bit-identical to the intact tree" >&2
    diff -r "$run_dir/a/chaos_ckpt" "$run_dir/b/chaos_ckpt" | head -10 >&2
    fail_summary "remote_${i}_tree_diff" "$seed" "$ordinal" 13
  fi
  echo "    remote_$i: node-loss resume healed and matched bit-identically"
done

echo "==> chaos soak: summary: all $TOTAL schedules survived" \
     "($ITERATIONS full-epoch, 6 delta-cadence, 6 consolidation kills," \
     "$ITERATIONS remote node-loss)"
