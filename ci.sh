#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, runnable offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test -q"
cargo test -q --workspace --offline

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> fault-injection controller smoke test"
# Drives the simulated controller's fault-injection mode through every
# ShimError path and the journal crash-recovery property, by name, so a
# filtered-out or renamed test fails loudly here.
cargo test -q -p bf4-shim --offline \
    fault_injection_exercises_every_shim_error_path \
    -- --exact controller::tests::fault_injection_exercises_every_shim_error_path
cargo test -q -p bf4-shim --offline \
    recovered_shim_decides_like_uninterrupted_run \
    -- --exact journal::tests::recovered_shim_decides_like_uninterrupted_run

echo "==> CLI solver-governance smoke test"
# A hard per-query budget must terminate and degrade, never hang or
# report bug-free: exit code 1 (bugs remain) or 0, not 2/101.
out=$(cargo run -q --release --offline -p bf4-engine --bin bf4 -- \
    crates/corpus/programs/simple_nat.p4 --timeout-ms 2000 --quiet) || [ $? -eq 1 ]
echo "$out" | head -2

echo "==> CLI parallel smoke test (--jobs 2)"
# The engine path must terminate with the same exit-code contract.
out=$(cargo run -q --release --offline -p bf4-engine --bin bf4 -- \
    crates/corpus/programs/simple_nat.p4 --jobs 2 --cache-cap 4096 --quiet) \
    || [ $? -eq 1 ]
echo "$out" | head -2

echo "==> engine test suite under --jobs 2"
# The engine's own differential/panic/eviction tests exercise the
# parallel scheduler; run them by name so a rename fails loudly here.
cargo test -q -p bf4-engine --offline --test engine_integration \
    parallel_reports_match_sequential_reports \
    -- --exact parallel_reports_match_sequential_reports
cargo test -q -p bf4-engine --offline --test engine_integration \
    panicking_job_degrades_one_program_without_wedging_the_pool \
    -- --exact panicking_job_degrades_one_program_without_wedging_the_pool

echo "==> incremental-solver differential suites"
# The load-bearing contracts of the one solver path by name:
# assumption-literal verdicts (and Sat models) match fresh contexts on
# random sessions, unsat cores equal the reference oracle's plain deletion
# cores, failed-assumption sets are Unsat on their own, lemma flushing
# preserves verdicts/models, and the whole corpus reproduces the golden
# fixture through the parallel engine. A worker context outlives a
# program, so one variable name at two widths must blast to two vectors.
cargo test -q -p bf4-smt --offline --test incremental_props \
    incremental_matches_fresh_context \
    -- --exact incremental_matches_fresh_context
cargo test -q -p bf4-smt --offline --test incremental_props \
    incremental_cores_match_plain_deletion \
    -- --exact incremental_cores_match_plain_deletion
cargo test -q -p bf4-smt --offline --test incremental_props \
    failed_assumptions_alone_are_unsat \
    -- --exact failed_assumptions_alone_are_unsat
cargo test -q -p bf4-smt --offline --lib \
    drop_learned_preserves_verdicts_and_models \
    -- --exact sat::tests::drop_learned_preserves_verdicts_and_models
cargo test -q -p bf4-engine --offline --test engine_integration \
    corpus_reports_match_the_golden_fixture \
    -- --exact corpus_reports_match_the_golden_fixture
cargo test -q -p bf4-smt --offline --lib \
    one_name_at_two_widths_gets_two_bit_vectors \
    -- --exact incremental::tests::one_name_at_two_widths_gets_two_bit_vectors
cargo test -q -p bf4-engine --offline --test engine_integration \
    one_name_at_two_widths_verifies_as_each_program_alone \
    -- --exact one_name_at_two_widths_verifies_as_each_program_alone

echo "==> fault-injection + persistence test suites"
# The chaos/fault suites live in their own test binaries (the fault plan
# is process-global); run the load-bearing ones by name so a rename or
# filter-out fails loudly here.
cargo test -q -p bf4-engine --offline --test chaos \
    seeded_schedules_only_degrade_conservatively \
    -- --exact seeded_schedules_only_degrade_conservatively
cargo test -q -p bf4-engine --offline --test chaos \
    cache_persistence_faults_never_flip_verdicts \
    -- --exact cache_persistence_faults_never_flip_verdicts
cargo test -q -p bf4-engine --offline --test persist_props \
    mutated_record_is_dropped_never_returned_altered \
    -- --exact mutated_record_is_dropped_never_returned_altered
cargo test -q -p bf4-smt --offline --test fault_inject \
    same_seed_replays_the_same_schedule \
    -- --exact same_seed_replays_the_same_schedule
cargo test -q -p bf4-shim --offline --test journal_fault \
    fsync_fault_mid_persist_then_reopen_loses_nothing \
    -- --exact fsync_fault_mid_persist_then_reopen_loses_nothing

echo "==> batched-shim suites (monolithic parity, joint specs, crash atomicity, torn commits)"
# The line-rate shim's load-bearing properties by name: batched verdicts,
# rule ids and digest equal to the monolithic Shim::apply, multi-table
# assertions enforced within and across batches, batch apply
# all-or-nothing under a crash at any journal byte offset, and a torn
# group commit never splitting or acknowledging a batch.
cargo test -q -p bf4-shim --offline --test shard_pool \
    batched_verdicts_match_monolithic_apply \
    -- --exact batched_verdicts_match_monolithic_apply
cargo test -q -p bf4-shim --offline --test shard_pool \
    joint_specs_enforced_within_and_across_batches \
    -- --exact joint_specs_enforced_within_and_across_batches
cargo test -q -p bf4-shim --offline --test batch_props \
    batch_boundaries_and_neighbors_are_exact \
    -- --exact batch_boundaries_and_neighbors_are_exact
cargo test -q -p bf4-shim --offline --test batch_fault \
    torn_group_commit_never_splits_or_acks_a_batch \
    -- --exact torn_group_commit_never_splits_or_acks_a_batch

tmpdir=$(mktemp -d)
bf4d_pid=""
trap '[ -n "$bf4d_pid" ] && kill "$bf4d_pid" 2>/dev/null; rm -rf "$tmpdir"' EXIT

echo "==> tracing smoke test (--trace-out + trace-lint)"
# A traced run must emit schema-valid spans covering every instrumented
# layer; trace-lint validates each JSONL line and requires the layers,
# so a silently un-instrumented stage fails here instead of shrinking
# the trace.
out=$(cargo run -q --release --offline -p bf4-engine --bin bf4 -- \
    crates/corpus/programs/simple_nat.p4 crates/corpus/programs/multi_tenant.p4 \
    --jobs 4 --cache-cap 4096 --trace-out "$tmpdir/trace.jsonl" --quiet) \
    || [ $? -eq 1 ]
cargo run -q --release --offline -p bf4-bench --bin report -- \
    trace-lint "$tmpdir/trace.jsonl" --require-layers frontend,ir,smt,core,engine
# To a file first: piping straight into `head` races report's later
# writes against head's exit (EPIPE panic).
cargo run -q --release --offline -p bf4-bench --bin report -- \
    profile "$tmpdir/trace.jsonl" > "$tmpdir/profile.txt"
head -3 "$tmpdir/profile.txt"
grep '^cache:' "$tmpdir/profile.txt"  # the unified cache-hit accounting line

echo "==> golden corpus differential (sequential and --jobs 4)"
# Normalized corpus reports (sorted bug/degraded lines, no timings) must
# be byte-identical to the committed fixture, both from --jobs 1 and from
# a parallel cached run — the parallel run with tracing enabled, so
# observability provably cannot perturb reports. The fixture holds the
# reports of the retired one-shot solver path; a change that moves a
# verdict or an inferred annotation fails here.
golden=tests/golden/corpus_normalized.txt
cargo run -q --release --offline -p bf4-bench --bin report -- corpus \
    > "$tmpdir/seq.txt" 2>/dev/null
diff -u "$golden" "$tmpdir/seq.txt"
cargo run -q --release --offline -p bf4-bench --bin report -- corpus \
    --jobs 4 --cache-cap 65536 --trace-out "$tmpdir/corpus-trace.jsonl" \
    > "$tmpdir/par.txt" 2>/dev/null
diff -u "$golden" "$tmpdir/par.txt"
cargo run -q --release --offline -p bf4-bench --bin report -- \
    trace-lint "$tmpdir/corpus-trace.jsonl" --require-layers frontend,ir,smt,engine
echo "differential OK ($(wc -l < "$golden") report lines identical to the fixture)"

echo "==> chaos gate (seeded fault schedules, conservative degradation only)"
# Three seeded schedules over the whole corpus: every report must be
# identical to the fault-free run or degraded toward Undecided/degraded —
# the gate exits 1 on any flipped verdict (and on a schedule that never
# fired). 2>/dev/null drops the injected-panic backtraces the engine
# catches by design.
cargo run -q --release --offline -p bf4-bench --bin report -- chaos \
    --seeds 11,23,37 2>/dev/null

echo "==> warm-vs-cold persistent cache smoke"
# Two corpus runs against one --cache-dir: the second must warm-start
# from the store, strictly beat the first run's hit rate, and leave every
# report byte-identical; exits 1 otherwise.
cargo run -q --release --offline -p bf4-bench --bin report -- cachebench \
    --dir "$tmpdir/cache-store" --out "$tmpdir/BENCH_cache.json"
grep -q '"preloaded": 0' "$tmpdir/BENCH_cache.json"  # cold run starts empty

echo "==> cache regress gate (fresh numbers vs committed baseline)"
# Scale-free metrics (hit rates, preload/corruption counts) may not be
# worse than bench/baselines/BENCH_cache.json beyond the tolerance band.
cargo run -q --release --offline -p bf4-bench --bin report -- regress \
    --fresh "$tmpdir/BENCH_cache.json" --baseline bench/baselines/BENCH_cache.json

echo "==> shim stress campaign (BF4_FAULTS torn commits mid-burst, crash/reopen gates)"
# The staged-load campaign under an ambient chaos plan — armed from
# warmup on, strictly harsher than the fault-stage-only default — on a
# small program and on the largest one. Gates (exit 1, kept by
# pipefail): zero acknowledged batches lost across the mid-campaign
# crash/reopen, zero replay mismatches, the recovered digest equal to the
# live one, zero invalid rules admitted under any injected fault, and a
# fault plan that fired. 2>/dev/null drops the injected-panic backtraces
# the shim catches by design.
for prog in simple_nat fabric_switch; do
    echo "-- $prog"
    BF4_FAULTS="seed=13,shim.batch_torn=%5,shim.shard_poison=%9,shim.overload=%11" \
        ./target/release/bf4 controller "crates/corpus/programs/$prog.p4" \
        --campaign --dir "$tmpdir" 2>/dev/null | tail -3
done

echo "==> daemon test suites (incremental soundness, impact property, chaos)"
# The daemon's load-bearing suites by name, so a rename or filter-out
# fails loudly here.
cargo test -q -p bf4-daemon --offline --test daemon_integration \
    scripted_edit_sequence_matches_one_shot \
    -- --exact scripted_edit_sequence_matches_one_shot
cargo test -q -p bf4-daemon --offline --test impact_props \
    single_action_edit_impact_is_sound \
    -- --exact single_action_edit_impact_is_sound
cargo test -q -p bf4-daemon --offline --test daemon_chaos \
    faults_degrade_one_request_without_poisoning_state \
    -- --exact faults_degrade_one_request_without_poisoning_state
cargo test -q -p bf4-daemon --offline --test telemetry \
    tsdb_survives_restart_and_seeds_the_slo_window \
    -- --exact tsdb_survives_restart_and_seeds_the_slo_window
cargo test -q -p bf4-daemon --offline --test telemetry \
    request_id_tags_flow_into_every_pipeline_span \
    -- --exact request_id_tags_flow_into_every_pipeline_span

echo "==> daemon smoke (bf4d + bf4 client, incremental re-verify)"
# Start bf4d on a temp socket, submit a corpus program, edit it, and
# resubmit: the second response must be incremental (skips > 0 in the
# client summary) and its normalized report byte-identical both to the
# first verdict and to a one-shot run of the edited source.
sock="$tmpdir/bf4d.sock"
./target/release/bf4d --socket "$sock" --quiet &
bf4d_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ]
cp crates/corpus/programs/simple_nat.p4 "$tmpdir/watched.p4"
./target/release/bf4 client --socket "$sock" submit "$tmpdir/watched.p4" \
    --program nat --normalized \
    > "$tmpdir/daemon-v1.txt" 2> "$tmpdir/daemon-v1.log" || [ $? -eq 1 ]
printf '\n// ci daemon smoke edit\n' >> "$tmpdir/watched.p4"
./target/release/bf4 client --socket "$sock" submit "$tmpdir/watched.p4" \
    --program nat --normalized \
    > "$tmpdir/daemon-v2.txt" 2> "$tmpdir/daemon-v2.log" || [ $? -eq 1 ]
grep -Eq 'skips=[1-9]' "$tmpdir/daemon-v2.log"  # second submit was incremental
./target/release/report normalize "$tmpdir/watched.p4" --name nat \
    > "$tmpdir/daemon-oneshot.txt"
diff -u "$tmpdir/daemon-oneshot.txt" "$tmpdir/daemon-v2.txt"
diff -u "$tmpdir/daemon-v1.txt" "$tmpdir/daemon-v2.txt"
./target/release/bf4 client --socket "$sock" shutdown
wait "$bf4d_pid"
bf4d_pid=""
echo "daemon smoke OK"

echo "==> operational telemetry smoke (metrics exposition, request profile, SLO, tsdb)"
# One bf4d with the full telemetry surface on. The loop under test:
# submit -> the metrics op and the HTTP endpoint serve the same parseable
# exposition (the scrape is a curl-free raw TCP GET) -> the daemon trace
# reconstructs one request's flame by ID and passes the daemon-aware
# lint -> a BF4_FAULTS-degraded daemon writes a sample that trips the
# `report slo` gate -> the time-series survives a restart.
sock="$tmpdir/bf4d-telemetry.sock"
obsdir="$tmpdir/telemetry-store"
tsdb="$obsdir/tsdb.bf4t"
metrics_port=$((19000 + RANDOM % 2000))
./target/release/bf4d --socket "$sock" --cache-dir "$obsdir" \
    --trace-out "$tmpdir/bf4d-trace.jsonl" \
    --metrics-addr "127.0.0.1:$metrics_port" --slo degraded_rate=0.5 --quiet &
bf4d_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ]
./target/release/bf4 client --socket "$sock" submit \
    crates/corpus/programs/simple_nat.p4 --program nat \
    > "$tmpdir/telemetry-v1.txt" 2> "$tmpdir/telemetry-v1.log" || [ $? -eq 1 ]
grep -q '\[req-1\]' "$tmpdir/telemetry-v1.txt"  # the verdict names its request
./target/release/bf4 client --socket "$sock" metrics > "$tmpdir/exposition.txt"
grep -q '^bf4_daemon_submits 1$' "$tmpdir/exposition.txt"
./target/release/report expose-lint "$tmpdir/exposition.txt"
# The HTTP endpoint must serve the same grammar; scrape it with nothing
# but bash (/dev/tcp), strip the response head, and lint the body.
exec 3<>"/dev/tcp/127.0.0.1/$metrics_port"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 > "$tmpdir/scrape.http"
exec 3<&- 3>&-
head -1 "$tmpdir/scrape.http" | grep -q '200 OK'
sed '1,/^[[:space:]]*$/d' "$tmpdir/scrape.http" > "$tmpdir/scrape-body.txt"
grep -q '^bf4_daemon_submits ' "$tmpdir/scrape-body.txt"
./target/release/report expose-lint "$tmpdir/scrape-body.txt"
# One bounded dashboard frame over the live daemon.
./target/release/bf4 top --socket "$sock" --iterations 1 > "$tmpdir/top.txt"
grep -q 'req/s' "$tmpdir/top.txt"
grep -Eq 'latency +p50' "$tmpdir/top.txt"
./target/release/bf4 client --socket "$sock" shutdown
wait "$bf4d_pid"
bf4d_pid=""
# The trace is request-scoped: profile exactly request req-1 and hold
# every pipeline span to the daemon lint (request span + inherited tags).
cargo run -q --release --offline -p bf4-bench --bin report -- \
    profile "$tmpdir/bf4d-trace.jsonl" --request req-1 > "$tmpdir/req1-flame.txt"
grep -q 'req-1' "$tmpdir/req1-flame.txt"
cargo run -q --release --offline -p bf4-bench --bin report -- \
    trace-lint "$tmpdir/bf4d-trace.jsonl" --require-layers daemon,frontend,core,smt
# A forced-degraded daemon (every solver query times out under
# BF4_FAULTS) appends a degraded sample to the same series. The submit is
# a program the warmed cache has never seen, so the injected timeouts
# actually reach the solver; the SLO window seeds with the store's one
# healthy sample, so the threshold sits below the resulting rate of 1/2.
BF4_FAULTS="seed=7,smt.timeout=p1" ./target/release/bf4d --socket "$sock" \
    --cache-dir "$obsdir" --no-cache-persist --slo degraded_rate=0.4 --quiet &
bf4d_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ]
./target/release/bf4 client --socket "$sock" submit \
    crates/corpus/programs/multi_tenant.p4 --program mt \
    > "$tmpdir/telemetry-degraded.log" 2>&1 || [ $? -eq 1 ]
grep -Eq '[1-9] degraded stage' "$tmpdir/telemetry-degraded.log"
./target/release/bf4 client --socket "$sock" stats > "$tmpdir/telemetry-stats.txt"
grep -Eq '^alerts: [1-9]' "$tmpdir/telemetry-stats.txt"  # the daemon raised it live
./target/release/bf4 client --socket "$sock" shutdown
wait "$bf4d_pid"
bf4d_pid=""
# ...and the offline SLO gate over the persisted series must fire on it.
if ./target/release/report slo "$tsdb" --slo degraded_rate=0.5 --window 1 \
    > "$tmpdir/slo.txt"; then
    echo "report slo failed to flag the degraded request"; exit 1
fi
grep -q '^VIOLATION' "$tmpdir/slo.txt"
# The series survives a restart: a fresh daemon on the same store seeds
# from it and appends exactly one more sample.
lines_before=$(wc -l < "$tsdb")
./target/release/bf4d --socket "$sock" --cache-dir "$obsdir" \
    --no-cache-persist --quiet &
bf4d_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ]
./target/release/bf4 client --socket "$sock" submit \
    crates/corpus/programs/simple_nat.p4 --program nat \
    > /dev/null 2>&1 || [ $? -eq 1 ]
./target/release/bf4 client --socket "$sock" shutdown
wait "$bf4d_pid"
bf4d_pid=""
[ "$(wc -l < "$tsdb")" -eq $((lines_before + 1)) ]
./target/release/report slo "$tsdb" --slo p99_ms=600000 --window 1 | grep -q '^slo OK'
echo "telemetry smoke OK"

echo "==> daemonbench gate (verdicts identical, warm pass incremental, telemetry overhead)"
# Exit 1 unless every incremental verdict is byte-identical to a one-shot
# run, the warm pass skipped bugs, and telemetry costs at most 1.25x.
cargo run -q --release --offline -p bf4-bench --bin report -- daemonbench

echo "==> BF4_FAULTS CLI smoke + fault audit"
# The CLI must honor a BF4_FAULTS schedule end to end: same exit-code
# contract, and the injected sites auditable from the trace afterwards.
out=$(BF4_FAULTS="seed=5,smt.backend_error=p0.2" \
    cargo run -q --release --offline -p bf4-engine --bin bf4 -- \
    crates/corpus/programs/simple_nat.p4 --jobs 2 --cache-cap 4096 \
    --trace-out "$tmpdir/faults.jsonl" --quiet 2>/dev/null) || [ $? -eq 1 ]
cargo run -q --release --offline -p bf4-bench --bin report -- \
    faults "$tmpdir/faults.jsonl" | tail -2

echo "CI OK"
