#!/usr/bin/env bash
# Tier-1 verification entry point: configure, build, run the test suite,
# then smoke-test the corpus kill/resume/replay workflow end to end.
# Builders and CI share this one script; it exits nonzero on any failure.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${VERIFY_JOBS:-$(nproc)}"

cmake -B build -S .
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure --no-tests=error -j "${JOBS}"

# --- Corpus smoke: run, kill, resume, export, replay ------------------------
# The acceptance property of src/corpus/: a campaign killed by a program
# budget and resumed at a different jobs value exports byte-identical
# records to an uninterrupted run, and every record replays CONFIRMED.
CLI=build/examples/campaign_cli
SMOKE=$(mktemp -d)
trap 'rm -rf "${SMOKE}"' EXIT
CAMPAIGN=(--programs 12 --seed 1 --boot-insts 2000)

# --- Window-atlas gate: the cycle-exact fingerprint must not move -----------
# Every number in the atlas is a simulated cycle count or census, so it
# reproduces byte for byte on any host; a change that moves one simulated
# cycle of the measured windows fails here.
# Cycle skipping elides only quiescent cycles, so the atlas must not move
# with it off either.
echo "--- window atlas: output must equal the committed WINDOW_ATLAS.json"
./build/bench/window_atlas > "${SMOKE}/atlas.json"
cmp WINDOW_ATLAS.json "${SMOKE}/atlas.json"
AMULET_NO_CYCLE_SKIP=1 ./build/bench/window_atlas | cmp WINDOW_ATLAS.json -

# --- Demo gate: the hand-built violation demos must not move -----------------
# The six figure/table demos and spectre_playground print the rows of the
# catalog in src/core/paper_leaks.hh: listings, verdicts, differing
# addresses, cycle counts and event tables, all simulator-exact, so their
# stdout reproduces byte for byte. The hashes were taken before the demos
# shared the catalog, except fig6_table7's and table9's, re-taken when the
# event table's input A column stopped cutting rows at 46 characters.
echo "--- demo gate: demo output must hash to the pinned values"
mkdir "${SMOKE}/demos"
for demo in bench/fig4_uv1_spec_eviction bench/fig6_table7_uv2_interference \
            bench/fig8_uv6_speclfb bench/fig9_kv3_stt \
            bench/table9_uv5_overclean bench/table10_kv2_unxpec \
            examples/spectre_playground; do
  "./build/${demo}" > "${SMOKE}/demos/${demo#*/}.txt"
done
(cd "${SMOKE}/demos" && sha256sum --check --quiet -) <<'EOF'
12c20897c71d8600d926ec711d31b0f235d8cf4f40ccfe2622306d94d51eecdf  fig4_uv1_spec_eviction.txt
139b41666ea7f45b51341f940ed27124a94d84a3595c24cbc9235005d2c862b1  fig6_table7_uv2_interference.txt
e23a693c43c3d6b663864537456d9ea60cea4973fd5e61ab82ae2aca55815373  fig8_uv6_speclfb.txt
49f764ca87e0f96ff2d74bf94777baf81900dbd31d1fcb48dc3974630e33e8e9  fig9_kv3_stt.txt
08ceee0b53e0708e2553ef77e217c2a3c2a5ae3fe01edf20948416560a435a8f  table9_uv5_overclean.txt
4bab5ef58165a47245dfdde035003958311b2676e1c52ce8d4ca555438ab4f19  table10_kv2_unxpec.txt
0dc47305a9f6bdac143cd8b72f5a764f2150e1915f03d28093f40a872a3a5c86  spectre_playground.txt
EOF
rm -rf "${SMOKE}/demos"

# A malformed bench variable exits 2 naming it, before any campaign runs.
echo "--- bench env: malformed AMULET_BENCH_JOBS/SCALE must exit 2"
for var in AMULET_BENCH_JOBS AMULET_BENCH_SCALE; do
  for bad in abc 2x -1 ""; do
    rc=0
    env "${var}=${bad}" ./build/bench/table4_defense_campaigns \
        > /dev/null 2> "${SMOKE}/env.err" || rc=$?
    if [ "${rc}" -ne 2 ] || ! grep -q "^${var} must be" "${SMOKE}/env.err"
    then
      echo "FAIL: ${var}='${bad}' must exit 2 naming the variable," \
           "got ${rc}" >&2
      exit 1
    fi
  done
done

# --- Sandbox-bytes gate: a short STT campaign's export must not move ------
# Its ten KV3 records carry full 128-page sandboxes (21 MB of hex), so any
# drift in generated input bytes (page-lazy sandbox images, the jump-ahead,
# sibling patching) fails here, not only in the benchmark's golden. The
# hash was computed before sandboxes became lazy images.
echo "--- sandbox-bytes gate: STT KV3 export must hash to the pinned value"
"${CLI}" --defense stt --contract ARCH-SEQ --pages 128 --programs 60 \
    --seed 31 --jobs 1 --boot-insts 2000 --corpus-dir "${SMOKE}/stt" \
    > /dev/null
"${CLI}" export --corpus-dir "${SMOKE}/stt" --out "${SMOKE}/stt.jsonl" \
    > /dev/null
echo "d6856be994323330810b49b5f44e803aa27a5718c82fcf4416c3fefab24f79ea" \
     " ${SMOKE}/stt.jsonl" | sha256sum --check --quiet -
# The same campaign over the subprocess wire, where its generated inputs
# travel as sandbox descriptors (protocol v8): the worker's lazily mapped
# images must give the same export, for under 2 MB of requests (as 1 MiB
# of hex per input, the requests of this campaign weighed 1.96 GB).
echo "--- sandbox-bytes gate over the subprocess wire"
"${CLI}" --defense stt --contract ARCH-SEQ --pages 128 --programs 60 \
    --seed 31 --jobs 1 --boot-insts 2000 --backend subprocess \
    --corpus-dir "${SMOKE}/stt_sub" > /dev/null
"${CLI}" export --corpus-dir "${SMOKE}/stt_sub" \
    --out "${SMOKE}/stt_sub.jsonl" > /dev/null
cmp "${SMOKE}/stt.jsonl" "${SMOKE}/stt_sub.jsonl"
request_bytes=$("${CLI}" stats --corpus-dir "${SMOKE}/stt_sub" |
                awk '$1 == "wire.requestBytes" { print $2 }')
if [ -z "${request_bytes}" ] || [ "${request_bytes}" -ge 2000000 ]; then
  echo "FAIL: STT subprocess campaign sent ${request_bytes:-no} request" \
       "bytes; generated inputs must travel as descriptors" >&2
  exit 1
fi
rm -rf "${SMOKE}/stt_sub" "${SMOKE}/stt_sub.jsonl"

# --- Forensics gate: the pipeline traces `inspect` renders must not move ----
# Record 0 of the same corpus, replayed once under the per-instruction
# tracer with the event log on: the Konata, O3PipeView and Perfetto files
# pin every traced lifecycle, the runahead NOPs fetched past the
# program's end included, and sidebyside.txt below its first line pins
# the event table (the demos' filter and renderer) and the trace diff.
# report.txt and that first line are left out: they carry the corpus
# path and the wall-clock detection time.
echo "--- forensics gate: inspect artifacts of STT record 0 must hash to" \
     "the pinned values"
"${CLI}" inspect "${SMOKE}/stt" 0 --out "${SMOKE}/stt_inspect" > /dev/null
tail -n +2 "${SMOKE}/stt_inspect/sidebyside.txt" \
    > "${SMOKE}/stt_inspect/sidebyside.body"
(cd "${SMOKE}/stt_inspect" && sha256sum --check --quiet -) <<'EOF'
9366bd2efc814700d2d62e85c78cebaf6936b8750f627d80a8b3c4d871472004  inputA.kanata
add45b5a6833f53801f9d8e3b017404525b3453683f66fb0391ce47500982dce  inputB.kanata
378f99fd211192224d41d0c4a46e29058bb5d3b6048a1eff680122773dbd02d2  inputA.o3pipe.txt
d32c54030622d35a6742affca26e6fe5379d4db64f77cc3e99c0f1270d0268b5  inputB.o3pipe.txt
35280b100b02a6ea42b91df0f5e1ec3afa09edfa5fdd463fb87eedf56c182725  pipeline.trace.json
452fbb23c6da8af19b646eaf19c094b9e1b6b58b2d7f821a81e68a885cb3b7a2  sidebyside.body
EOF
rm -rf "${SMOKE}/stt" "${SMOKE}/stt.jsonl" "${SMOKE}/stt_inspect"

echo "--- corpus smoke: friendly CLI errors"
if "${CLI}" --programs banana > /dev/null 2>&1; then
  echo "FAIL: bad numeric argument must exit nonzero" >&2
  exit 1
fi
if "${CLI}" --no-such-flag > /dev/null 2>&1; then
  echo "FAIL: unknown flag must exit nonzero" >&2
  exit 1
fi
if "${CLI}" --backend warp > /dev/null 2>&1; then
  echo "FAIL: unknown backend must exit nonzero" >&2
  exit 1
fi
# The async backend was removed: its name takes the unknown-backend path,
# which exits 2 and lists the backends that remain.
rc=0
"${CLI}" --backend async > /dev/null 2> "${SMOKE}/async.err" || rc=$?
if [ "${rc}" -ne 2 ] ||
   ! grep -q "(valid: inproc subprocess)" "${SMOKE}/async.err"; then
  echo "FAIL: --backend async must exit 2 listing inproc subprocess," \
       "got ${rc}" >&2
  exit 1
fi
# Every choice flag reads its values from one table: an unknown value
# exits 2 and lists the valid ones.
for flag in --defense --contract --trace; do
  rc=0
  "${CLI}" "${flag}" warp > /dev/null 2> "${SMOKE}/choice.err" || rc=$?
  if [ "${rc}" -ne 2 ] || ! grep -q "(valid: " "${SMOKE}/choice.err"; then
    echo "FAIL: ${flag} warp must exit 2 listing the valid values," \
         "got ${rc}" >&2
    exit 1
  fi
done
# A fault-plan number that does not fit its field is refused, not
# truncated (4294967297 would poison program 1).
if "${CLI}" --fault-plan 'seed=1;poison=4294967297' --programs 2 \
    > /dev/null 2> "${SMOKE}/plan.err" ||
   ! grep -q "fault plan" "${SMOKE}/plan.err"; then
  echo "FAIL: an out-of-range poison index must fail naming the plan" >&2
  exit 1
fi
# --defense stt alone runs the paper's STT cell.
"${CLI}" --defense stt --programs 2 --boot-insts 500 > "${SMOKE}/stt.txt"
if ! head -n 1 "${SMOKE}/stt.txt" | grep -q "contract=ARCH-SEQ" ||
   ! head -n 1 "${SMOKE}/stt.txt" | grep -q "pages=128"; then
  echo "FAIL: --defense stt must run ARCH-SEQ on 128 pages" >&2
  exit 1
fi
# A sandbox must be a power of two in 1..128 pages: 0 underflows the
# index mask, 3 masks to 0x2fff and never reaches page 1.
for pages in 0 3; do
  rc=0
  "${CLI}" --pages "${pages}" --programs 1 > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "FAIL: --pages ${pages} must exit 2, got ${rc}" >&2
    exit 1
  fi
done
# Cache geometry the simulator cannot model: 0 ways divides by zero,
# 1024 ways leaves 0 sets, 3 ways gives 170.67 sets that the set mask
# folds onto 16, and 0 MSHRs never fill a miss.
for geometry in "--ways 0" "--ways 3" "--ways 1024" "--mshrs 0"; do
  rc=0
  "${CLI}" ${geometry} --programs 1 > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "FAIL: ${geometry} must exit 2, got ${rc}" >&2
    exit 1
  fi
done
"${CLI}" --list | grep -qx "backends (--backend): inproc subprocess"

echo "--- corpus smoke: uninterrupted reference run"
"${CLI}" "${CAMPAIGN[@]}" --corpus-dir "${SMOKE}/full" --jobs 2 > /dev/null

echo "--- corpus smoke: budget-killed run + resume at different --jobs"
"${CLI}" "${CAMPAIGN[@]}" --corpus-dir "${SMOKE}/part" \
    --max-programs 5 --checkpoint-every 2 --jobs 1 > /dev/null
"${CLI}" "${CAMPAIGN[@]}" --corpus-dir "${SMOKE}/part" \
    --resume --jobs 3 > /dev/null

echo "--- corpus smoke: exports must be byte-identical"
"${CLI}" export --corpus-dir "${SMOKE}/full" --out "${SMOKE}/full.jsonl" \
    > /dev/null
"${CLI}" export --corpus-dir "${SMOKE}/part" --out "${SMOKE}/part.jsonl" \
    > /dev/null
# Header + at least one record line, or the comparison is vacuous.
test "$(wc -l < "${SMOKE}/full.jsonl")" -gt 1
cmp "${SMOKE}/full.jsonl" "${SMOKE}/part.jsonl"

echo "--- corpus smoke: every exported record must replay CONFIRMED"
"${CLI}" replay --corpus-dir "${SMOKE}/part" > /dev/null

echo "--- corpus smoke: a meta.json with unmodelable geometry is refused"
cp -r "${SMOKE}/part" "${SMOKE}/ways0"
sed -i 's/"ways":8/"ways":0/' "${SMOKE}/ways0/meta.json"
rc=0
"${CLI}" replay --corpus-dir "${SMOKE}/ways0" > /dev/null \
    2> "${SMOKE}/ways0.err" || rc=$?
if [ "${rc}" -ne 1 ] || ! grep -q "cache geometry" "${SMOKE}/ways0.err"; then
  echo "FAIL: replay of a ways-0 corpus must exit 1 with a corpus error," \
       "got ${rc}" >&2
  exit 1
fi

echo "--- corpus smoke: a record whose context does not fit the core is refused"
cp -r "${SMOKE}/part" "${SMOKE}/nobtb"
sed -i 's/"btbTags":\[[^]]*\]/"btbTags":[]/' "${SMOKE}/nobtb/journal.jsonl"
rc=0
"${CLI}" replay --corpus-dir "${SMOKE}/nobtb" > /dev/null \
    2> "${SMOKE}/nobtb.err" || rc=$?
if [ "${rc}" -ne 1 ] || ! grep -q "does not fit" "${SMOKE}/nobtb.err"; then
  echo "FAIL: replay of an empty-BTB record must exit 1 with a corpus" \
       "error, got ${rc}" >&2
  exit 1
fi

echo "--- corpus smoke: a record whose input flags overflow a byte is refused"
cp -r "${SMOKE}/part" "${SMOKE}/flags257"
sed -i 's/"flags":[0-9]*/"flags":257/' "${SMOKE}/flags257/journal.jsonl"
rc=0
"${CLI}" replay --corpus-dir "${SMOKE}/flags257" > /dev/null \
    2> "${SMOKE}/flags257.err" || rc=$?
if [ "${rc}" -ne 1 ] || ! grep -q "do not fit a byte" "${SMOKE}/flags257.err"
then
  echo "FAIL: replay of a flags-257 record must exit 1 with a corpus" \
       "error, got ${rc}" >&2
  exit 1
fi

echo "corpus smoke: OK"

# --- Filter smoke: filtering on/off must reach identical verdicts ------------
# The filter equivalence contract (src/pipeline/README.md): for a fixed
# (config, seed), verdicts and exported records are identical with
# ineffective-test-case filtering on (default) and off.

echo "--- filter smoke: on/off record equivalence (CT-SEQ, has records)"
# Export headers carry the config fingerprint, which legitimately differs
# (the knob is part of the campaign definition); strip the header line.
"${CLI}" "${CAMPAIGN[@]}" --corpus-dir "${SMOKE}/fon" --jobs 2 > /dev/null
"${CLI}" "${CAMPAIGN[@]}" --no-filter --corpus-dir "${SMOKE}/foff" \
    --jobs 2 > /dev/null
"${CLI}" export --corpus-dir "${SMOKE}/fon" --out "${SMOKE}/fon.jsonl" \
    > /dev/null
"${CLI}" export --corpus-dir "${SMOKE}/foff" --out "${SMOKE}/foff.jsonl" \
    > /dev/null
test "$(wc -l < "${SMOKE}/fon.jsonl")" -gt 1
cmp <(tail -n +2 "${SMOKE}/fon.jsonl") <(tail -n +2 "${SMOKE}/foff.jsonl")

echo "--- filter smoke: on/off verdict equivalence (CT-COND, filters)"
# CT-COND is where filtering actually prunes simulator runs; the verdict
# counters must not move. Wall-clock and the filtering counters are the
# only legitimate differences, so compare the verdict lines of report().
verdicts() {
  grep -E "test cases:|effective classes:|candidates:|validation runs:|violating|confirmed:|unique" \
    || true
}
FILTER_CAMPAIGN=(--programs 12 --seed 1 --contract CT-COND --boot-insts 2000)
"${CLI}" "${FILTER_CAMPAIGN[@]}" --jobs 2 > "${SMOKE}/ccon.txt"
"${CLI}" "${FILTER_CAMPAIGN[@]}" --no-filter --jobs 2 > "${SMOKE}/ccoff.txt"
diff <(verdicts < "${SMOKE}/ccon.txt") <(verdicts < "${SMOKE}/ccoff.txt")
if ! grep -E "filtered testcases:  [1-9]" "${SMOKE}/ccon.txt" > /dev/null; then
  echo "FAIL: CT-COND smoke filtered nothing (vacuous equivalence)" >&2
  exit 1
fi

echo "--- filter smoke: mixed-knob resume must be refused"
if "${CLI}" "${CAMPAIGN[@]}" --no-filter --corpus-dir "${SMOKE}/fon" \
    --resume > /dev/null 2>&1; then
  echo "FAIL: resume with a different filter knob must exit nonzero" >&2
  exit 1
fi

echo "filter smoke: OK"

# --- Runtime-knob smokes: turning a fast path off must not move a byte -----
# Every --no-* flag on the runtime-knobs line of --list turns off a fast
# path with an equivalence contract: the memoized priming run
# (src/executor/README.md), the forked contract-trace emulator
# (src/contracts/README.md) and cycle skipping (src/uarch/README.md) are
# each state-identical to the slow path. So corpus exports — headers
# included, runtime knobs are outside the config fingerprint — are
# byte-identical with the knob on (default) and off, and a corpus written
# with it off resumes and replays with it on. The loop reads the flags
# from --list, so a knob listed there cannot miss its smoke.

KNOBS=$("${CLI}" --list | sed -n 's/^runtime knobs: //p' | tr ' ' '\n' |
  grep -- '^--no-')
for knob in --no-prime-cache --no-ctrace-memo --no-cycle-skip; do
  grep -qx -- "${knob}" <<< "${KNOBS}"
done
for knob in ${KNOBS}; do
  name=${knob#--no-}
  echo "--- ${name} smoke: on/off export equivalence"
  "${CLI}" "${CAMPAIGN[@]}" "${knob}" --corpus-dir "${SMOKE}/${name}" \
      --jobs 2 > /dev/null
  "${CLI}" export --corpus-dir "${SMOKE}/${name}" \
      --out "${SMOKE}/${name}.jsonl" > /dev/null
  test "$(wc -l < "${SMOKE}/${name}.jsonl")" -gt 1
  cmp "${SMOKE}/full.jsonl" "${SMOKE}/${name}.jsonl"
  "${CLI}" replay --corpus-dir "${SMOKE}/${name}" > /dev/null
  echo "${name} smoke: OK"
done
# And the campaign must actually skip: the telemetry registry's cycle
# counters are live in the default (skipping) reference corpus.
"${CLI}" stats --corpus-dir "${SMOKE}/full" | grep -q "cycle skipping"

# --- Backend smoke: inproc/subprocess must export identically ---------------
# The backend equivalence contract (src/executor/backend.hh): for a fixed
# (config, seed), corpus exports are byte-identical across backends — the
# simulator may run in-thread or in a forked amulet_sim_worker process
# without moving a single record byte.

echo "--- backend smoke: inproc/subprocess export equivalence"
for b in inproc subprocess; do
  "${CLI}" "${CAMPAIGN[@]}" --backend "$b" --corpus-dir "${SMOKE}/be_$b" \
      --jobs 2 > /dev/null
  "${CLI}" export --corpus-dir "${SMOKE}/be_$b" \
      --out "${SMOKE}/be_$b.jsonl" > /dev/null
done
test "$(wc -l < "${SMOKE}/be_inproc.jsonl")" -gt 1
cmp "${SMOKE}/be_inproc.jsonl" "${SMOKE}/be_subprocess.jsonl"
# The wire byte counters are the subprocess backend's, taken on the
# client side of the pipe; the in-process backend has no wire to count.
"${CLI}" stats --corpus-dir "${SMOKE}/be_subprocess" > "${SMOKE}/be_sub.stats"
"${CLI}" stats --corpus-dir "${SMOKE}/be_inproc" > "${SMOKE}/be_in.stats"
for counter in wire.requestBytes wire.replyBytes; do
  if ! grep -q "^  ${counter} " "${SMOKE}/be_sub.stats" ||
     grep -q "${counter}" "${SMOKE}/be_in.stats"; then
    echo "FAIL: ${counter} must be counted by the subprocess backend" \
         "and only there" >&2
    exit 1
  fi
done
# The corpus workflows accept either backend transparently: the knob is
# runtime-only (like --jobs), so the reference corpus from the smoke above
# resumes and replays under a different backend.
"${CLI}" replay --corpus-dir "${SMOKE}/be_subprocess" > /dev/null

# Every worker dies after 25 simulator ops, one more than this campaign's
# longest program takes, so each crashed program re-runs whole on a fresh
# executor; the smoke must have crashed a worker to pass.
echo "--- backend smoke: killed workers must not change the campaign"
AMULET_SIM_WORKER_CRASH_AFTER=25 \
    "${CLI}" "${CAMPAIGN[@]}" --backend subprocess \
    --corpus-dir "${SMOKE}/be_crash" --jobs 2 > /dev/null
"${CLI}" export --corpus-dir "${SMOKE}/be_crash" \
    --out "${SMOKE}/be_crash.jsonl" > /dev/null
cmp "${SMOKE}/be_inproc.jsonl" "${SMOKE}/be_crash.jsonl"
"${CLI}" stats --corpus-dir "${SMOKE}/be_crash" \
    | grep -q "^  backend.restarts " \
    || { echo "FAIL: the crash smoke crashed no worker" >&2; exit 1; }

echo "backend smoke: OK"

# --- Chaos smoke: fault-injection survivability ------------------------------
# The failure-model contract (src/runtime/README.md, "Failure model"):
# a seeded chaos plan — worker crashes, real hangs, dropped and garbled
# replies, shard failures, a torn journal append, failing checkpoint
# writes, and one poisoned program — must complete the campaign with
# the poisoned program quarantined (journaled, counted, listed) and the
# export restricted to non-quarantined programs byte-identical to the
# clean run, at jobs=1 and jobs=4. The plan is seeded and site-keyed,
# so both jobs values quarantine the same set and export the same bytes.

echo "--- chaos smoke: seeded fault plan survives and quarantines"
CHAOS_PLAN="seed=9;poison=2;wire.crash=25;wire.garble=25;wire.drop=25"
CHAOS_PLAN="${CHAOS_PLAN};shard.throw=120;journal.once=1;checkpoint.fail=500"
for j in 1 4; do
  AMULET_SIM_WORKER_HANG_AFTER=150 AMULET_SIM_OP_TIMEOUT_SEC=4 \
      "${CLI}" "${CAMPAIGN[@]}" --backend subprocess --checkpoint-every 2 \
      --corpus-dir "${SMOKE}/chaos_j$j" --jobs "$j" \
      --fault-plan "${CHAOS_PLAN}" > "${SMOKE}/chaos_j$j.txt"
  grep -q "quarantined:" "${SMOKE}/chaos_j$j.txt"
  "${CLI}" quarantined --corpus-dir "${SMOKE}/chaos_j$j" \
      > "${SMOKE}/chaos_j$j.quar"
  cut -f1 "${SMOKE}/chaos_j$j.quar" | grep -qx "2" \
      || { echo "FAIL: poisoned program 2 not quarantined" >&2; exit 1; }
  "${CLI}" export --corpus-dir "${SMOKE}/chaos_j$j" \
      --out "${SMOKE}/chaos_j$j.jsonl" > /dev/null
  "${CLI}" stats --corpus-dir "${SMOKE}/chaos_j$j" \
      | grep -q "campaign.quarantinedPrograms"
done
# Deterministic chaos: both jobs values reach the same quarantine set
# and the same export bytes.
diff "${SMOKE}/chaos_j1.quar" "${SMOKE}/chaos_j4.quar"
cmp "${SMOKE}/chaos_j1.jsonl" "${SMOKE}/chaos_j4.jsonl"
# Unaffected programs are untouched: the clean reference export minus
# the quarantined programs' records must equal the chaos export (their
# headers share one fingerprint — the plan is a runtime knob).
python3 - "${SMOKE}/full.jsonl" "${SMOKE}/chaos_j1.jsonl" \
    "${SMOKE}/chaos_j1.quar" "${SMOKE}/chaos_filtered.jsonl" <<'EOF'
import json, sys
drop = {int(l.split("\t")[0]) for l in open(sys.argv[3]) if l.strip()}
assert drop, "vacuous chaos smoke: nothing was quarantined"
clean = open(sys.argv[1], "rb").read().splitlines(keepends=True)
chaos = open(sys.argv[2], "rb").read().splitlines(keepends=True)
assert json.loads(clean[0])["fingerprint"] == \
    json.loads(chaos[0])["fingerprint"], "fault plan moved the fingerprint"
kept = [l for l in clean[1:]
        if json.loads(l)["programIndex"] not in drop]
assert json.loads(chaos[0])["records"] == len(kept), "record count"
open(sys.argv[4], "wb").write(b"".join(kept))
EOF
cmp "${SMOKE}/chaos_filtered.jsonl" <(tail -n +2 "${SMOKE}/chaos_j1.jsonl")
# With the plan off nothing in the chaos machinery runs: the reference
# corpora of every other smoke above already prove the byte-identity.
"${CLI}" --list | grep -q -- "--fault-plan"

echo "chaos smoke: OK"

# --- Telemetry smoke: observability must not move a record byte --------------
# The telemetry contract (src/telemetry/README.md): tracing + heartbeats
# are results-invisible — exports (headers included; the telemetry config
# is excluded from the fingerprint) are byte-identical with them on and
# off — and the side channels themselves are well-formed.

echo "--- telemetry smoke: traced+heartbeat run exports identically"
"${CLI}" "${CAMPAIGN[@]}" --corpus-dir "${SMOKE}/tel" --jobs 2 \
    --trace-out "${SMOKE}/tel.trace.json" \
    --heartbeat "${SMOKE}/tel.hb.jsonl" --heartbeat-interval 0.2 \
    > /dev/null
"${CLI}" export --corpus-dir "${SMOKE}/tel" --out "${SMOKE}/tel.jsonl" \
    > /dev/null
cmp "${SMOKE}/full.jsonl" "${SMOKE}/tel.jsonl"
# The trace is one JSON document of Chrome trace events; the heartbeat
# is JSONL with a final all-programs-done line.
python3 - "${SMOKE}/tel.trace.json" "${SMOKE}/tel.hb.jsonl" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
assert any(e.get("ph") == "X" and e["name"].startswith("stage.")
           for e in trace["traceEvents"]), "no stage spans in trace"
lines = [json.loads(l) for l in open(sys.argv[2])]
assert lines, "empty heartbeat"
assert lines[-1]["programsDone"] + lines[-1]["resumedPrograms"] == \
    lines[-1]["programsTotal"], "final heartbeat incomplete"
EOF
# The metrics registry persisted next to the journal and renders.
"${CLI}" stats --corpus-dir "${SMOKE}/tel" | grep -q "time breakdown"
"${CLI}" stats --corpus-dir "${SMOKE}/tel" | grep -q "sim input latency"

echo "--- telemetry smoke: stats on a corpus without metrics exits 2"
# A pre-telemetry corpus (journal but no metrics.json) is a corpus
# state, not a usage error: friendly message, exit code 2.
cp -r "${SMOKE}/tel" "${SMOKE}/nometrics"
rm -f "${SMOKE}/nometrics/metrics.json"
set +e
"${CLI}" stats --corpus-dir "${SMOKE}/nometrics" \
    > "${SMOKE}/nometrics.out" 2>&1
rc=$?
set -e
if [ "${rc}" -ne 2 ]; then
  echo "FAIL: stats without metrics.json must exit 2 (got ${rc})" >&2
  exit 1
fi
grep -q "no metrics.json" "${SMOKE}/nometrics.out"

echo "--- telemetry smoke: heartbeat to a pipe streams lines live"
# --heartbeat - writes + flushes whole lines: a pipe reader must see
# the first JSONL line while the campaign is still running (a long one
# here, killed as soon as the line arrives), not at process exit.
python3 - "${CLI}" <<'EOF'
import json, select, subprocess, sys
p = subprocess.Popen(
    [sys.argv[1], "--programs", "500", "--boot-insts", "2000",
     "--heartbeat", "-", "--heartbeat-interval", "0.1"],
    stdout=subprocess.PIPE)
try:
    # Skip the campaign banner; the heartbeat flush pushes it through.
    deadline = 30
    while True:
        ready, _, _ = select.select([p.stdout], [], [], deadline)
        assert ready, "no heartbeat within 30s: stdout not flushed live"
        line = p.stdout.readline()
        assert line, "campaign exited before emitting a heartbeat"
        if line.lstrip().startswith(b"{"):
            break
    doc = json.loads(line)
    assert doc["programsTotal"] == 500, doc
finally:
    p.kill()
    p.wait()
EOF

echo "telemetry smoke: OK"

# --- Uarch-trace smoke: inspect renders every journaled violation -----------
# The forensics path (src/telemetry/README.md): `inspect` replays a
# journaled violation from the journal with the per-instruction tracer
# on, names the first divergent instruction, and writes Konata-loadable
# traces. `inspect DIR` does that for every record, each from a fresh
# harness, so its record<i>/ equals what `inspect DIR i` writes alone.

echo "--- uarch-trace smoke: inspect localizes a journaled violation"
"${CLI}" inspect "${SMOKE}/full" 0 --out "${SMOKE}/inspect0" > /dev/null
grep -q "first divergent instruction" "${SMOKE}/inspect0/report.txt"
test -s "${SMOKE}/inspect0/inputA.kanata"
test -s "${SMOKE}/inspect0/inputB.kanata"
test -s "${SMOKE}/inspect0/pipeline.trace.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
    "${SMOKE}/inspect0/pipeline.trace.json"
# Bad record index: friendly usage error, exit 2.
set +e
"${CLI}" inspect "${SMOKE}/full" 99999 > /dev/null 2>&1
rc=$?
set -e
if [ "${rc}" -ne 2 ]; then
  echo "FAIL: inspect with an out-of-range index must exit 2" >&2
  exit 1
fi

echo "--- uarch-trace smoke: inspect of every record"
"${CLI}" inspect "${SMOKE}/full" > /dev/null
records=$(($(wc -l < "${SMOKE}/full.jsonl") - 1))
test "$(ls -d "${SMOKE}/full/inspect/record"* | wc -l)" -eq "${records}"
for ((i = 0; i < records; ++i)); do
  f="${SMOKE}/full/inspect/record$i/inputA.kanata"
  head -n 1 "$f" | grep -q "Kanata" || { echo "FAIL: $f" >&2; exit 1; }
done
diff -r "${SMOKE}/full/inspect/record0" "${SMOKE}/inspect0"

echo "uarch-trace smoke: OK"

# --- Throughput canary: table3 filter ablation --------------------------------
# Scaled-down table3 run printing the filter's before/after tests/s line
# (a paper §3.2 claim), and failing if filtering moved a verdict.
echo "--- table3 throughput (filter off -> on)"
AMULET_BENCH_SCALE="${AMULET_BENCH_SCALE:-0.2}" \
    ./build/bench/table3_baseline_campaign > "${SMOKE}/table3.txt"
grep -A 2 "filter ablation" "${SMOKE}/table3.txt"
if grep -q "DIVERGED" "${SMOKE}/table3.txt"; then
  echo "FAIL: the filter ablation changed campaign verdicts" >&2
  exit 1
fi
