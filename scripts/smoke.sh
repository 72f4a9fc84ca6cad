#!/usr/bin/env bash
# Smoke test for the live multi-filter service: build the real binary, start
# it with a durable data dir, create a counting filter over HTTP, drive adds
# and adversarial removals with curl, and verify the §4.3 signature — an
# honest item turned false negative by removing crafted "ghost" items the
# filter wrongly believes present. Then SIGTERM the server (graceful drain +
# flush), restart it from the same data dir, and verify the filter state —
# stats, the adversarially induced false negatives, the default filter —
# survived the restart unchanged.
#
# Deterministic: the filter is tiny (m=64, k=4) with a fixed public seed, so
# every counter position, false positive and induced false negative is the
# same on every run.
set -euo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-18379}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/evilbloom"
LOG="$(dirname "$BIN")/serve.log"
DATA="$(dirname "$BIN")/data"

cleanup() {
  [[ -n "${SERVER_PID:-}" ]] && kill "$SERVER_PID" 2>/dev/null || true
  [[ -n "${SERVER_B_PID:-}" ]] && kill "$SERVER_B_PID" 2>/dev/null || true
  [[ -n "${SERVER_C_PID:-}" ]] && kill "$SERVER_C_PID" 2>/dev/null || true
  [[ -n "${SERVER_D_PID:-}" ]] && kill "$SERVER_D_PID" 2>/dev/null || true
  [[ -n "${SERVER_E_PID:-}" ]] && kill "$SERVER_E_PID" 2>/dev/null || true
  [[ -n "${SERVER_F_PID:-}" ]] && kill "$SERVER_F_PID" 2>/dev/null || true
  [[ -n "${SERVER_G_PID:-}" ]] && kill "$SERVER_G_PID" 2>/dev/null || true
}
trap cleanup EXIT

say()  { printf 'smoke: %s\n' "$*"; }
fail() { say "FAIL: $*"; [[ -f "$LOG" ]] && sed 's/^/smoke:   server: /' "$LOG"; exit 1; }

wait_ready() {
  for i in $(seq 1 50); do
    curl -sf "$BASE/v2/filters/default/info" >/dev/null 2>&1 && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
  done
  curl -sf "$BASE/v2/filters/default/info" >/dev/null || fail "server never came up"
}

say "building evilbloom"
go build -o "$BIN" ./cmd/evilbloom

say "starting evilbloom serve on $ADDR with -data-dir $DATA"
"$BIN" serve -addr "$ADDR" -data-dir "$DATA" >"$LOG" 2>&1 &
SERVER_PID=$!

wait_ready

say "creating a counting filter (m=64, k=4, naive seed 3) via PUT /v2/filters/smoke"
CREATE=$(curl -sf -X PUT "$BASE/v2/filters/smoke" \
  -d '{"variant":"counting","mode":"naive","shards":1,"shard_bits":64,"hash_count":4,"seed":3}')
echo "$CREATE" | grep -q '"variant":"counting"' || fail "unexpected create response: $CREATE"
echo "$CREATE" | grep -q '"remove"' || fail "counting filter does not advertise remove: $CREATE"

say "adding 100 honest items"
ITEMS=$(printf '"http://honest.example/%s",' $(seq 1 100))
curl -sf -X POST "$BASE/v2/filters/smoke/add-batch" -d "{\"items\":[${ITEMS%,}]}" \
  | grep -q '"added":100' || fail "batch add failed"

say "checking a never-inserted ghost item reads as present (false positive at high fill)"
GHOST_PRESENT=$(curl -sf -X POST "$BASE/v2/filters/smoke/test" -d '{"item":"ghost-0"}')
echo "$GHOST_PRESENT" | grep -q '"present":true' || fail "ghost not a false positive: $GHOST_PRESENT"

say "removing ghost items the filter wrongly believes present"
ACCEPTED=0
for i in $(seq 0 39); do
  RESP=$(curl -s -X POST "$BASE/v2/filters/smoke/remove" -d "{\"item\":\"ghost-$i\"}")
  echo "$RESP" | grep -q '"removed":1' && ACCEPTED=$((ACCEPTED + 1))
done
say "server accepted $ACCEPTED ghost removals"
[[ "$ACCEPTED" -gt 0 ]] || fail "no ghost removal accepted"

say "checking for induced false negatives among the honest items"
fn_list() {
  local out="$1"
  : >"$out"
  for i in $(seq 1 100); do
    RESP=$(curl -sf -X POST "$BASE/v2/filters/smoke/test" -d "{\"item\":\"http://honest.example/$i\"}")
    echo "$RESP" | grep -q '"present":false' && echo "$i" >>"$out"
  done
  return 0
}
FN_BEFORE="$(dirname "$BIN")/fn-before.txt"
fn_list "$FN_BEFORE"
FN=$(wc -l <"$FN_BEFORE")
say "$FN/100 honest items driven to false negatives"
[[ "$FN" -gt 0 ]] || fail "removals induced no false negative"

say "verifying stats answer; adding an item to the default filter"
curl -sf "$BASE/v2/filters/smoke/stats" | grep -q '"variant":"counting"' || fail "stats missing variant"
curl -sf -X POST "$BASE/v2/filters/default/add" -d '{"item":"x"}' | grep -q '"added":1' || fail "default filter add failed"

# ---------------------------------------------------------------------------
# Blocked-bloom variant over HTTP: create a cache-line-local filter, run a
# pollution campaign against it, and (after the restart below) verify its
# stats and snapshot survive byte-identically. Deterministic: one 512-bit
# block, fixed public seed.

say "creating a blocked filter (one 512-bit block, k=4, naive seed 3) via PUT /v2/filters/blk"
BLK_CREATE=$(curl -sf -X PUT "$BASE/v2/filters/blk" \
  -d '{"variant":"blocked","mode":"naive","shards":1,"shard_bits":512,"hash_count":4,"seed":3}')
echo "$BLK_CREATE" | grep -q '"variant":"blocked"' || fail "unexpected blocked create response: $BLK_CREATE"

say "a blocked filter must refuse removal with the capability error (405)"
BLK_RM=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v2/filters/blk/remove" -d '{"item":"x"}')
[[ "$BLK_RM" == "405" ]] || fail "blocked remove answered $BLK_RM, want 405"

say "running a pollution campaign against the blocked filter (120 chosen inserts)"
BLK_ITEMS=$(printf '"http://pollute.example/%s",' $(seq 1 120))
curl -sf -X POST "$BASE/v2/filters/blk/add-batch" -d "{\"items\":[${BLK_ITEMS%,}]}" \
  | grep -q '"added":120' || fail "blocked pollution batch failed"
BLK_FILL=$(curl -sf "$BASE/v2/filters/blk/stats" | grep -o '"fill":[0-9.]*' | head -n1)
say "blocked filter polluted: $BLK_FILL"

say "recording the blocked filter's ghost false positives, stats and snapshot"
blk_ghosts() {
  local out="$1"
  : >"$out"
  for i in $(seq 0 19); do
    RESP=$(curl -sf -X POST "$BASE/v2/filters/blk/test" -d "{\"item\":\"blk-ghost-$i\"}")
    echo "$RESP" | grep -q '"present":true' && echo "$i" >>"$out"
  done
  return 0
}
BLK_GHOSTS_BEFORE="$(dirname "$BIN")/blk-ghosts-before.txt"
blk_ghosts "$BLK_GHOSTS_BEFORE"
say "$(wc -l <"$BLK_GHOSTS_BEFORE")/20 ghosts read present on the polluted blocked filter"
blk_stats() { curl -sf "$BASE/v2/filters/blk/stats" | sed 's/"rate_limit":{[^}]*}//'; }
BLK_STATS_BEFORE=$(blk_stats)
echo "$BLK_STATS_BEFORE" | grep -q '"variant":"blocked"' || fail "blocked stats missing variant"
BLK_SNAP_BEFORE="$(dirname "$BIN")/blk-snap-before.evb"
curl -sf -o "$BLK_SNAP_BEFORE" "$BASE/v2/filters/blk/snapshot" && [[ -s "$BLK_SNAP_BEFORE" ]] \
  || fail "blocked snapshot export failed"

say "uploading the blocked filter's naive snapshot as a new durable filter (PUT /v2/filters/blk-copy)"
UP_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X PUT -H 'Content-Type: application/octet-stream' \
  --data-binary @"$BLK_SNAP_BEFORE" "$BASE/v2/filters/blk-copy")
[[ "$UP_CODE" == "201" ]] || fail "snapshot upload answered $UP_CODE, want 201"
UP_SNAP="$(dirname "$BIN")/blk-copy-before.evb"
curl -sf -o "$UP_SNAP" "$BASE/v2/filters/blk-copy/snapshot" || fail "uploaded filter's snapshot export failed"
cmp -s "$BLK_SNAP_BEFORE" "$UP_SNAP" || fail "uploaded filter does not snapshot back to the upload"

say "an upload with one payload byte flipped must answer 400 and leave no filter behind"
BAD_SNAP="$(dirname "$BIN")/blk-bad.evb"
cp "$BLK_SNAP_BEFORE" "$BAD_SNAP"
BYTE=$(od -An -tu1 -j100 -N1 "$BAD_SNAP" | tr -d ' ')
printf "\\$(printf '%03o' $((BYTE ^ 1)))" | dd of="$BAD_SNAP" bs=1 seek=100 conv=notrunc status=none
cmp -s "$BLK_SNAP_BEFORE" "$BAD_SNAP" && fail "payload byte was not flipped"
BAD_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X PUT -H 'Content-Type: application/octet-stream' \
  --data-binary @"$BAD_SNAP" "$BASE/v2/filters/blk-bad")
[[ "$BAD_CODE" == "400" ]] || fail "corrupt snapshot upload answered $BAD_CODE, want 400"
BAD_GET=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v2/filters/blk-bad")
[[ "$BAD_GET" == "404" ]] || fail "the failed upload's filter answers $BAD_GET, want 404"
[[ ! -e "$DATA/blk-bad" ]] || fail "the failed upload left $DATA/blk-bad behind"

say "compacting the smoke filter (snapshot + log rotation)"
curl -sf -X POST "$BASE/v2/filters/smoke/compact" | grep -q '"compacted":true' || fail "compact failed"
say "adding one post-compact item so the restart replays snapshot + log"
curl -sf -X POST "$BASE/v2/filters/smoke/add" -d '{"item":"post-compact"}' | grep -q '"added":1' || fail "post-compact add failed"
# Filter state survives restarts byte-identically; the in-memory rate-limit
# accounting (the flat "rate_limit" object in stats) deliberately does not,
# so it is stripped from the comparison.
filter_stats() { curl -sf "$BASE/v2/filters/smoke/stats" | sed 's/"rate_limit":{[^}]*}//'; }
STATS_BEFORE=$(filter_stats)

say "SIGTERM: graceful drain and durable-state flush"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
grep -q "durable state flushed" "$LOG" || fail "graceful shutdown did not flush"
# Shutdown compacts a filter whose log holds at least as many bytes as its
# snapshot would. The blocked filter's 120 journaled adds outweigh its
# 164-byte snapshot, so it leaves generation 1; the smoke filter's log is
# one add, so it keeps generation 1 and the restart replays snapshot + log.
grep -q "1 filter(s) compacted" "$LOG" || fail "shutdown did not report compacting exactly one filter"
[[ -e "$DATA/blk/snap-000001.evb" ]] || fail "the blocked filter's outweighing log was not compacted at shutdown"
[[ -e "$DATA/smoke/snap-000001.evb" && ! -e "$DATA/smoke/snap-000002.evb" ]] \
  || fail "the smoke filter's one-record log was compacted at shutdown: $(ls "$DATA/smoke")"
[[ -s "$DATA/smoke/wal-000001.log" ]] || fail "the smoke filter's post-compact log is gone"

say "restarting from $DATA"
"$BIN" serve -addr "$ADDR" -data-dir "$DATA" >"$LOG" 2>&1 &
SERVER_PID=$!
wait_ready
grep -q "recovered 4 filter(s)" "$LOG" || fail "restart did not recover all four filters"

say "verifying stats survived the restart byte-identically"
STATS_AFTER=$(filter_stats)
[[ "$STATS_BEFORE" == "$STATS_AFTER" ]] || fail "stats changed across restart:
  before: $STATS_BEFORE
  after:  $STATS_AFTER"

say "verifying the adversarially induced false negatives survived"
FN_AFTER="$(dirname "$BIN")/fn-after.txt"
fn_list "$FN_AFTER"
diff -q "$FN_BEFORE" "$FN_AFTER" >/dev/null || fail "false-negative set changed across restart"
curl -sf -X POST "$BASE/v2/filters/smoke/test" -d '{"item":"post-compact"}' | grep -q '"present":true' \
  || fail "post-compact item lost"

say "verifying the default filter survived too"
curl -sf -X POST "$BASE/v2/filters/default/test" -d '{"item":"x"}' | grep -q '"present":true' || fail "default filter state lost"

say "verifying the polluted blocked filter survived the restart"
BLK_STATS_AFTER=$(blk_stats)
[[ "$BLK_STATS_BEFORE" == "$BLK_STATS_AFTER" ]] || fail "blocked stats changed across restart:
  before: $BLK_STATS_BEFORE
  after:  $BLK_STATS_AFTER"
BLK_SNAP_AFTER="$(dirname "$BIN")/blk-snap-after.evb"
curl -sf -o "$BLK_SNAP_AFTER" "$BASE/v2/filters/blk/snapshot" \
  || fail "blocked snapshot re-export failed"
cmp -s "$BLK_SNAP_BEFORE" "$BLK_SNAP_AFTER" || fail "blocked snapshot changed across restart"
BLK_GHOSTS_AFTER="$(dirname "$BIN")/blk-ghosts-after.txt"
blk_ghosts "$BLK_GHOSTS_AFTER"
diff -q "$BLK_GHOSTS_BEFORE" "$BLK_GHOSTS_AFTER" >/dev/null \
  || fail "blocked ghost false-positive set changed across restart"
for i in 1 60 120; do
  curl -sf -X POST "$BASE/v2/filters/blk/test" -d "{\"item\":\"http://pollute.example/$i\"}" \
    | grep -q '"present":true' || fail "blocked filter lost polluting item $i across restart"
done
say "verifying the uploaded filter survived the restart byte for byte"
UP_SNAP_AFTER="$(dirname "$BIN")/blk-copy-after.evb"
curl -sf -o "$UP_SNAP_AFTER" "$BASE/v2/filters/blk-copy/snapshot" || fail "uploaded filter's snapshot re-export failed"
cmp -s "$BLK_SNAP_BEFORE" "$UP_SNAP_AFTER" || fail "uploaded filter changed across restart"

# ---------------------------------------------------------------------------
# Two-server cache-digest exchange (§7 live): a second evilbloom process
# peers at the first, pulls its digests, and routes by them. Pollute A's
# filter and B's routing verdicts for never-cached items flip from "origin"
# to "peer" — the paper's misdirected sibling probes, over two real
# processes. Deterministic: tiny filter (m=64, k=4), fixed public seed.

say "=== two-server digest exchange (§7) ==="
B_ADDR="127.0.0.1:${SMOKE_PORT2:-18380}"
B_BASE="http://$B_ADDR"
LOG_B="$(dirname "$BIN")/serve-b.log"
MESH='{"shards":1,"shard_bits":64,"hash_count":4,"seed":3}'

say "creating the shared 'mesh' filter on server A"
curl -sf -X PUT "$BASE/v2/filters/mesh" -d "$MESH" | grep -q '"digest"' \
  || fail "mesh filter does not advertise the digest capability"

say "the counting filter exports a digest too (any variant, 1 bit/position)"
SMOKE_DIGEST="$(dirname "$BIN")/smoke-digest.bin"
curl -sf -o "$SMOKE_DIGEST" "$BASE/v2/filters/smoke/digest" && [[ -s "$SMOKE_DIGEST" ]] \
  || fail "counting-filter digest export failed"

say "starting peer server B on $B_ADDR with -peer $BASE"
"$BIN" serve -addr "$B_ADDR" -peer "$BASE" -peer-refresh 1s >"$LOG_B" 2>&1 &
SERVER_B_PID=$!
for i in $(seq 1 50); do
  curl -sf "$B_BASE/v2/filters/default/info" >/dev/null 2>&1 && break
  kill -0 "$SERVER_B_PID" 2>/dev/null || { LOG="$LOG_B" fail "server B exited during startup"; }
  sleep 0.1
done
curl -sf "$B_BASE/v2/filters/default/info" >/dev/null || fail "server B never came up"
curl -sf -X PUT "$B_BASE/v2/filters/mesh" -d "$MESH" >/dev/null || fail "creating mesh on B failed"

say "checking A's digest endpoint and its ETag short-circuit"
DIGEST_FILE="$(dirname "$BIN")/mesh-digest.bin"
ETAG=$(curl -sf -D - -o "$DIGEST_FILE" "$BASE/v2/filters/mesh/digest" \
  | awk 'tolower($1)=="etag:"{print $2}' | tr -d '\r')
[[ -s "$DIGEST_FILE" && -n "$ETAG" ]] || fail "digest export returned no body or no ETag"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $ETAG" "$BASE/v2/filters/mesh/digest")
[[ "$CODE" == "304" ]] || fail "unchanged digest refetched (status $CODE, want 304)"

say "B exchanges digests with A and reports the peer"
curl -sf -X POST "$B_BASE/v2/filters/mesh/peers/refresh" | grep -q '"has_digest":true' \
  || fail "B holds no digest of A after refresh"

say "routing verdicts before pollution: everything goes to the origin"
curl -sf -X POST "$B_BASE/v2/filters/mesh/route" -d '{"item":"wanted-item"}' \
  | grep -q '"verdict":"origin"' || fail "empty mesh routed somewhere"
GHOSTS_BEFORE=0
for i in $(seq 0 19); do
  curl -sf -X POST "$B_BASE/v2/filters/mesh/route" -d "{\"item\":\"mesh-ghost-$i\"}" \
    | grep -q '"verdict":"peer"' && GHOSTS_BEFORE=$((GHOSTS_BEFORE + 1))
done
say "$GHOSTS_BEFORE/20 ghost probes misdirected before pollution"
[[ "$GHOSTS_BEFORE" -le 3 ]] || fail "clean digest already misdirects $GHOSTS_BEFORE/20 ghosts"

say "caching wanted-item on A: B must now route it to the peer"
curl -sf -X POST "$BASE/v2/filters/mesh/add" -d '{"item":"wanted-item"}' >/dev/null
curl -sf -X POST "$B_BASE/v2/filters/mesh/peers/refresh" >/dev/null
curl -sf -X POST "$B_BASE/v2/filters/mesh/route" -d '{"item":"wanted-item"}' \
  | grep -q "\"verdict\":\"peer\",\"peer\":\"$BASE\"" || fail "cached item not routed to A"

say "polluting A's mesh filter (60 inserts saturate the 64-bit digest)"
POLLUTION=$(printf '"pollution-%s",' $(seq 1 60))
curl -sf -X POST "$BASE/v2/filters/mesh/add-batch" -d "{\"items\":[${POLLUTION%,}]}" >/dev/null \
  || fail "pollution batch failed"
curl -sf -X POST "$B_BASE/v2/filters/mesh/peers/refresh" >/dev/null

say "routing verdicts after pollution: ghosts are misdirected at A"
GHOSTS_AFTER=0
for i in $(seq 0 19); do
  curl -sf -X POST "$B_BASE/v2/filters/mesh/route" -d "{\"item\":\"mesh-ghost-$i\"}" \
    | grep -q '"verdict":"peer"' && GHOSTS_AFTER=$((GHOSTS_AFTER + 1))
done
say "$GHOSTS_AFTER/20 ghost probes misdirected after pollution (§7: 79% vs 40%)"
[[ "$GHOSTS_AFTER" -ge 15 ]] || fail "pollution misdirected only $GHOSTS_AFTER/20 ghosts"
[[ "$GHOSTS_AFTER" -gt $((GHOSTS_BEFORE + 10)) ]] || fail "no pollution gap"

say "stopping peer server B"
kill -TERM "$SERVER_B_PID"
wait "$SERVER_B_PID" || fail "server B exited non-zero on SIGTERM"

# ---------------------------------------------------------------------------
# Rate-limited mutation plane: a third server throttles per-client mutations
# (-rate-mutations, practically zero refill so the arithmetic is exact). A
# burst of ghost adds spends the budget, the overflow answers 429 with a
# Retry-After, and the accounting endpoint names the offending client.

say "=== rate-limited mutation plane ==="
C_ADDR="127.0.0.1:${SMOKE_PORT3:-18381}"
C_BASE="http://$C_ADDR"
LOG_C="$(dirname "$BIN")/serve-c.log"

say "starting rate-limited server C on $C_ADDR (-rate-mutations 0.01 -rate-burst 5)"
"$BIN" serve -addr "$C_ADDR" -rate-mutations 0.01 -rate-burst 5 >"$LOG_C" 2>&1 &
SERVER_C_PID=$!
for i in $(seq 1 50); do
  curl -sf "$C_BASE/v2/filters/default/info" >/dev/null 2>&1 && break
  kill -0 "$SERVER_C_PID" 2>/dev/null || { LOG="$LOG_C" fail "server C exited during startup"; }
  sleep 0.1
done
curl -sf "$C_BASE/v2/filters/default/info" >/dev/null || fail "server C never came up"

say "bursting 12 ghost adds at the default filter"
OK_COUNT=0
THROTTLED=0
RETRY_SEEN=""
for i in $(seq 1 12); do
  HDRS="$(dirname "$BIN")/rate-hdrs.txt"
  CODE=$(curl -s -D "$HDRS" -o /dev/null -w '%{http_code}' \
    -X POST "$C_BASE/v2/filters/default/add" -d "{\"item\":\"burst-ghost-$i\"}")
  case "$CODE" in
    200) OK_COUNT=$((OK_COUNT + 1)) ;;
    429)
      THROTTLED=$((THROTTLED + 1))
      grep -qi '^retry-after: ' "$HDRS" && RETRY_SEEN=yes
      ;;
    *) fail "burst add $i answered $CODE" ;;
  esac
done
say "burst outcome: $OK_COUNT accepted, $THROTTLED throttled"
[[ "$OK_COUNT" == "5" ]] || fail "burst allowed $OK_COUNT adds, want exactly the burst of 5"
[[ "$THROTTLED" == "7" ]] || fail "burst throttled $THROTTLED adds, want 7"
[[ "$RETRY_SEEN" == "yes" ]] || fail "429 answers carried no Retry-After header"

say "a spent budget stays spent"
LATE_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$C_BASE/v2/filters/default/add" -d '{"item":"late-ghost"}')
[[ "$LATE_CODE" == "429" ]] || fail "add on a spent budget answered $LATE_CODE, want 429"

say "the accounting endpoint names the offender"
CLIENTS=$(curl -sf "$C_BASE/v2/filters/default/clients")
echo "$CLIENTS" | grep -q '"client":"127.0.0.1"' || fail "offender not named: $CLIENTS"
echo "$CLIENTS" | grep -q '"allowed":5' || fail "allowed count wrong: $CLIENTS"
echo "$CLIENTS" | grep -q '"throttled":8' || fail "throttled count wrong: $CLIENTS"
curl -sf "$C_BASE/v2/filters/default/stats" | grep -q '"throttled_mutations":8' \
  || fail "stats missing the throttle aggregate"

say "reads stay free on a spent budget"
curl -sf -X POST "$C_BASE/v2/filters/default/test" -d '{"item":"burst-ghost-1"}' \
  | grep -q '"present"' || fail "test endpoint throttled"

say "stopping rate-limited server C"
kill -TERM "$SERVER_C_PID"
wait "$SERVER_C_PID" || fail "server C exited non-zero on SIGTERM"

# ---------------------------------------------------------------------------
# RESP binary plane: a fourth server opens the redis-protocol listener
# (-resp-addr) beside HTTP, rate-limited so the cross-plane bucket rule is
# observable. `evilbloom resp-cli` is the bundled redis-cli stand-in —
# byte-identical protocol, same reply formatting. The section drives:
# BF.RESERVE, one pipelined 100-item BF.MADD, EXISTS probes, a rate-limit
# burst answered with -BUSY over RESP, and the same spent bucket answering
# 429 over HTTP (no side door between the planes).

say "=== RESP binary plane ==="
D_ADDR="127.0.0.1:${SMOKE_PORT4:-18382}"
D_BASE="http://$D_ADDR"
D_RESP="127.0.0.1:${SMOKE_RESP_PORT:-16390}"
LOG_D="$(dirname "$BIN")/serve-d.log"

say "starting server D on $D_ADDR with -resp-addr $D_RESP (-rate-mutations 0.01 -rate-burst 105)"
"$BIN" serve -addr "$D_ADDR" -resp-addr "$D_RESP" -rate-mutations 0.01 -rate-burst 105 >"$LOG_D" 2>&1 &
SERVER_D_PID=$!
for i in $(seq 1 50); do
  curl -sf "$D_BASE/v2/filters/default/info" >/dev/null 2>&1 && break
  kill -0 "$SERVER_D_PID" 2>/dev/null || { LOG="$LOG_D" fail "server D exited during startup"; }
  sleep 0.1
done
curl -sf "$D_BASE/v2/filters/default/info" >/dev/null || fail "server D never came up"

rcli() { "$BIN" resp-cli -addr "$D_RESP" "$@"; }

say "PING over RESP"
rcli PING | grep -q '^PONG$' || fail "RESP PING failed"

say "creating a filter over RESP: BF.RESERVE rsmoke (m=4096, k=4, naive seed 3)"
rcli BF.RESERVE rsmoke 0 0 SHARDS 1 SHARDBITS 4096 HASHES 4 SEED 3 | grep -q '^OK$' \
  || fail "BF.RESERVE failed"

say "pipelined 100-item BF.MADD (one command, one shard pass)"
MADD_ITEMS=()
for i in $(seq 1 100); do MADD_ITEMS+=("http://resp.example/$i"); done
MADD_OUT=$(rcli BF.MADD rsmoke "${MADD_ITEMS[@]}")
MADD_ADDED=$(echo "$MADD_OUT" | grep -c '(integer) 1' || true)
[[ "$MADD_ADDED" == "100" ]] || fail "BF.MADD added $MADD_ADDED/100 items: $MADD_OUT"

say "EXISTS probes: inserted items present, fresh item absent"
rcli BF.EXISTS rsmoke "http://resp.example/1" | grep -q '(integer) 1' || fail "inserted item absent over RESP"
rcli BF.EXISTS rsmoke "never-inserted-item" | grep -q '(integer) 0' || fail "fresh item present over RESP"
rcli BF.INFO rsmoke | grep -q 'count' || fail "BF.INFO gave no count"

say "bursting 12 pipelined BF.ADDs at the 5 tokens left after the MADD"
BURST_OUT=$(rcli -repeat 12 BF.ADD rsmoke burst-ghost)
BURST_OK=$(echo "$BURST_OUT" | grep -c '(integer)' || true)
BURST_BUSY=$(echo "$BURST_OUT" | grep -c '(error) BUSY' || true)
say "burst outcome over RESP: $BURST_OK accepted, $BURST_BUSY busy"
[[ "$BURST_OK" == "5" ]] || fail "RESP burst allowed $BURST_OK adds, want exactly 5: $BURST_OUT"
[[ "$BURST_BUSY" == "7" ]] || fail "RESP burst bounced $BURST_BUSY adds, want 7: $BURST_OUT"
echo "$BURST_OUT" | grep -q 'retry after [0-9]*s' || fail "-BUSY reply carried no retry seconds"

say "the HTTP plane shares the spent bucket (no side door)"
X_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$D_BASE/v2/filters/rsmoke/add" -d '{"item":"http-ghost"}')
[[ "$X_CODE" == "429" ]] || fail "HTTP add on a RESP-spent budget answered $X_CODE, want 429"

say "reads stay free over RESP on the spent budget"
rcli BF.EXISTS rsmoke "http://resp.example/2" | grep -q '(integer) 1' || fail "RESP read throttled"

say "stopping server D (graceful drain covers the RESP listener)"
kill -TERM "$SERVER_D_PID"
wait "$SERVER_D_PID" || fail "server D exited non-zero on SIGTERM"
grep -q "durable state flushed\|bye" "$LOG_D" || fail "server D did not drain cleanly"

# ---------------------------------------------------------------------------
# Authenticated three-node quorum mesh: servers E (quorum-2 router), F
# (honest sibling) and G (evil sibling) share a credential roster
# (-peer-token, each node's own entry first). The section asserts the whole
# mesh story end to end: quorum route verdicts (two corroborating siblings
# route "peer", one alone does not), delta frames on sparse refreshes,
# anonymous digest pushes bouncing with 401, and live credential revocation
# ejecting the evil sibling — its saturated digest is evicted and its
# refreshes stop verifying. Refresh interval is an hour: every exchange
# after boot is driven explicitly, so verdicts are deterministic.

say "=== authenticated three-node quorum mesh ==="
E_ADDR="127.0.0.1:${SMOKE_PORT5:-18383}"
F_ADDR="127.0.0.1:${SMOKE_PORT6:-18384}"
G_ADDR="127.0.0.1:${SMOKE_PORT7:-18385}"
E_BASE="http://$E_ADDR"; F_BASE="http://$F_ADDR"; G_BASE="http://$G_ADDR"
LOG_E="$(dirname "$BIN")/serve-e.log"
LOG_F="$(dirname "$BIN")/serve-f.log"
LOG_G="$(dirname "$BIN")/serve-g.log"
ROSTER=(-peer "$E_BASE" -peer "$F_BASE" -peer "$G_BASE" -peer-refresh 1h -route-quorum 2)

say "starting mesh nodes E/F/G on $E_ADDR/$F_ADDR/$G_ADDR (quorum 2, shared roster)"
"$BIN" serve -addr "$E_ADDR" "${ROSTER[@]}" -self "$E_BASE" \
  -peer-token nodeE:se -peer-token nodeF:sf -peer-token nodeG:sg >"$LOG_E" 2>&1 &
SERVER_E_PID=$!
"$BIN" serve -addr "$F_ADDR" "${ROSTER[@]}" -self "$F_BASE" \
  -peer-token nodeF:sf -peer-token nodeE:se -peer-token nodeG:sg >"$LOG_F" 2>&1 &
SERVER_F_PID=$!
"$BIN" serve -addr "$G_ADDR" "${ROSTER[@]}" -self "$G_BASE" \
  -peer-token nodeG:sg -peer-token nodeE:se -peer-token nodeF:sf >"$LOG_G" 2>&1 &
SERVER_G_PID=$!
mesh_wait() { # name base log pid
  for i in $(seq 1 50); do
    curl -sf "$2/v2/filters/default/info" >/dev/null 2>&1 && return 0
    kill -0 "$4" 2>/dev/null || { LOG="$3" fail "mesh node $1 exited during startup"; }
    sleep 0.1
  done
  LOG="$3" fail "mesh node $1 never came up"
}
mesh_wait E "$E_BASE" "$LOG_E" "$SERVER_E_PID"
mesh_wait F "$F_BASE" "$LOG_F" "$SERVER_F_PID"
mesh_wait G "$G_BASE" "$LOG_G" "$SERVER_G_PID"

say "creating the shared 'mesh' filter on all three nodes"
for b in "$E_BASE" "$F_BASE" "$G_BASE"; do
  curl -sf -X PUT "$b/v2/filters/mesh" -d "$MESH" >/dev/null || fail "creating mesh filter on $b failed"
done

say "caching shared-item on both siblings: quorum 2 is met, E routes 'peer'"
curl -sf -X POST "$F_BASE/v2/filters/mesh/add" -d '{"item":"shared-item"}' >/dev/null
curl -sf -X POST "$G_BASE/v2/filters/mesh/add" -d '{"item":"shared-item"}' >/dev/null
curl -sf -X POST "$E_BASE/v2/filters/mesh/peers/refresh" >/dev/null
ROUTE=$(curl -sf -X POST "$E_BASE/v2/filters/mesh/route" -d '{"item":"shared-item"}')
echo "$ROUTE" | grep -q '"verdict":"peer"' || fail "corroborated item not routed to a peer: $ROUTE"
echo "$ROUTE" | grep -q '"claiming":2' || fail "route did not report two claimants: $ROUTE"
echo "$ROUTE" | grep -q '"quorum":2' || fail "route did not report the quorum: $ROUTE"

say "caching solo-item on one sibling only: quorum 2 unmet, E routes 'origin'"
curl -sf -X POST "$F_BASE/v2/filters/mesh/add" -d '{"item":"solo-item"}' >/dev/null
REFRESH=$(curl -sf -X POST "$E_BASE/v2/filters/mesh/peers/refresh")
ROUTE=$(curl -sf -X POST "$E_BASE/v2/filters/mesh/route" -d '{"item":"solo-item"}')
echo "$ROUTE" | grep -q '"verdict":"origin"' || fail "single-sibling item beat quorum 2: $ROUTE"
echo "$ROUTE" | grep -q '"claiming":1' || fail "route did not report the lone claimant: $ROUTE"

say "the sparse second refresh rode a delta frame, not a full envelope"
echo "$REFRESH" | grep -q '"delta_fetches":' || fail "no delta fetch recorded: $REFRESH"

say "an anonymous digest push bounces off the authenticated mesh with 401"
PUSH_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary @"$DIGEST_FILE" "$E_BASE/v2/filters/mesh/digest?peer=evil")
[[ "$PUSH_CODE" == "401" ]] || fail "anonymous digest push answered $PUSH_CODE, want 401"

say "evil sibling G saturates its digest (60 inserts into 64 bits)"
EVIL=$(printf '"evil-%s",' $(seq 1 60))
curl -sf -X POST "$G_BASE/v2/filters/mesh/add-batch" -d "{\"items\":[${EVIL%,}]}" >/dev/null \
  || fail "evil pollution batch failed"
peer_weight_max() { # heaviest digest E holds of any sibling
  curl -sf "$E_BASE/v2/filters/mesh/peers" | grep -o '"digest_weight":[0-9]*' \
    | grep -o '[0-9]*$' | sort -n | tail -1
}
curl -sf -X POST "$E_BASE/v2/filters/mesh/peers/refresh" >/dev/null
WEIGHT=$(peer_weight_max)
say "heaviest sibling digest on E after pollution: $WEIGHT/64 bits"
[[ "${WEIGHT:-0}" -ge 60 ]] || fail "evil digest not saturated on E (weight ${WEIGHT:-0})"

say "quorum blunts the saturated digest: ghost probes still need an honest accomplice"
QUORUM_GHOSTS=0
for i in $(seq 0 19); do
  curl -sf -X POST "$E_BASE/v2/filters/mesh/route" -d "{\"item\":\"quorum-ghost-$i\"}" \
    | grep -q '"verdict":"peer"' && QUORUM_GHOSTS=$((QUORUM_GHOSTS + 1))
done
say "$QUORUM_GHOSTS/20 ghost probes misdirected under quorum 2 (saturated sibling alone cannot vote)"
[[ "$QUORUM_GHOSTS" -le 3 ]] || fail "quorum 2 still misdirected $QUORUM_GHOSTS/20 ghosts"

say "revoking nodeG's credential on E: eviction is live"
REVOKE=$(curl -sf -X DELETE "$E_BASE/v2/peer-tokens/nodeG")
echo "$REVOKE" | grep -q '"revoked":"nodeG"' || fail "unexpected revocation response: $REVOKE"
# G sealed digests for both same-named filters E watches (mesh AND the
# default filter every serve process creates), so eviction scrubs ≥ 1.
EVICTED=$(echo "$REVOKE" | grep -o '"digests_evicted":[0-9]*' | grep -o '[0-9]*$')
[[ "${EVICTED:-0}" -ge 1 ]] || fail "revocation evicted nothing: $REVOKE"

say "G's refreshes stop verifying; its digest stays out"
REFRESH=$(curl -sf -X POST "$E_BASE/v2/filters/mesh/peers/refresh")
echo "$REFRESH" | grep -q 'no live credential for peer' || fail "revoked refetch recorded no credential error: $REFRESH"
WEIGHT=$(peer_weight_max)
say "heaviest sibling digest on E after revocation: ${WEIGHT:-0}/64 bits (honest sibling only)"
[[ "${WEIGHT:-0}" -le 20 ]] || fail "saturated evil digest survived revocation (weight $WEIGHT)"

say "post-revocation ghost probes all route to the origin"
POST_GHOSTS=0
for i in $(seq 0 19); do
  curl -sf -X POST "$E_BASE/v2/filters/mesh/route" -d "{\"item\":\"quorum-ghost-$i\"}" \
    | grep -q '"verdict":"peer"' && POST_GHOSTS=$((POST_GHOSTS + 1))
done
[[ "$POST_GHOSTS" == "0" ]] || fail "revoked sibling still misdirects $POST_GHOSTS/20 ghosts"

say "stopping mesh nodes E/F/G"
for pid in "$SERVER_E_PID" "$SERVER_F_PID" "$SERVER_G_PID"; do
  kill -TERM "$pid"
  wait "$pid" || fail "a mesh node exited non-zero on SIGTERM"
done
unset SERVER_E_PID SERVER_F_PID SERVER_G_PID

say "OK"
