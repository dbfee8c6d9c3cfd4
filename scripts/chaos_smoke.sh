#!/usr/bin/env bash
# Chaos smoke test for the replicated serving set, on real binaries:
# 1 primary (durable) + 2 read replicas + 1 router as separate processes.
# First a router given an engine flag must refuse to start. Then
# a replica is kill -9'd under client load — the router must mask it
# (zero client-visible errors); the replica restarts, catches up, all
# three nodes must byte-converge on /checksum, and rcnvm-clusterstat must
# show every node up. Then the primary itself is kill -9'd and recovered
# from its WAL, and the set must converge again.
# Finally: a second SIGINT during a drain must force-quit non-zero.
set -euo pipefail

DIR=$(mktemp -d)
DATA="$DIR/data"
BASE=${CHAOS_SMOKE_PORT:-7270}
P_TCP=$BASE;         P_HTTP=$((BASE + 1))
R1_TCP=$((BASE + 2)); R1_HTTP=$((BASE + 3))
R2_TCP=$((BASE + 4)); R2_HTTP=$((BASE + 5))
RT_TCP=$((BASE + 6)); RT_HTTP=$((BASE + 7))
PIDS=()

cleanup() {
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$DIR"
}
trap cleanup EXIT

# query <port> <sql> -> one NDJSON response line (bash /dev/tcp; no netcat).
query() {
    exec 3<>"/dev/tcp/127.0.0.1/$1"
    printf '{"query":"%s"}\n' "$2" >&3
    IFS= read -r line <&3
    exec 3<&- 3>&-
    printf '%s\n' "$line"
}

# http_get <port> <path> -> "<status> <body>" using HTTP/1.0 over /dev/tcp.
http_get() {
    local port=$1 path=$2 status="000" body="" line inbody=0
    if ! { exec 4<>"/dev/tcp/127.0.0.1/$port"; } 2>/dev/null; then
        printf '000\n'
        return 0
    fi
    printf 'GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n' "$path" >&4
    while IFS= read -r line <&4; do
        line=${line%$'\r'}
        if [ "$inbody" = 1 ]; then
            body+="$line"
        elif [ "$status" = "000" ]; then
            status=$(printf '%s' "$line" | awk '{print $2}')
        elif [ -z "$line" ]; then
            inbody=1
        fi
    done
    exec 4<&- 4>&-
    printf '%s %s\n' "$status" "$body"
}

wait_ready() { # <http port> <name>
    for _ in $(seq 1 100); do
        if [ "$(http_get "$1" /readyz | awk '{print $1}')" = 200 ]; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: $2 never became ready" >&2
    cat "$DIR"/*.log >&2 || true
    return 1
}

checksum() { # <http port> -> the shards hash array
    http_get "$1" /checksum | sed 's/^[0-9]* //'
}

wait_converged() { # <name...>: poll until primary and both replicas hash equal
    for _ in $(seq 1 100); do
        local p r1 r2
        p=$(checksum "$P_HTTP"); r1=$(checksum "$R1_HTTP"); r2=$(checksum "$R2_HTTP")
        if [ -n "$p" ] && [ "$p" = "$r1" ] && [ "$p" = "$r2" ]; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: replicas never converged with the primary:" >&2
    echo "  primary: $(checksum "$P_HTTP")" >&2
    echo "  r1:      $(checksum "$R1_HTTP")" >&2
    echo "  r2:      $(checksum "$R2_HTTP")" >&2
    tail -n 20 "$DIR"/*.log >&2 || true
    return 1
}

start_primary() {
    "$DIR/rcnvm-serve" -tcp ":$P_TCP" -http ":$P_HTTP" -shards 2 -data-dir "$DATA" \
        >>"$DIR/primary.log" 2>&1 &
    P_PID=$!
    PIDS+=("$P_PID")
}

# start_replica <tcp> <http> <logname>: sets REPLICA_PID. Must run in the
# main shell (not $(...)) so cleanup sees the pid.
start_replica() {
    "$DIR/rcnvm-serve" -tcp ":$1" -http ":$2" -shards 2 -replica "127.0.0.1:$P_HTTP" \
        >>"$DIR/$3.log" 2>&1 &
    REPLICA_PID=$!
    PIDS+=("$REPLICA_PID")
}

echo "== building rcnvm-serve and rcnvm-clusterstat"
go build -o "$DIR/rcnvm-serve" ./cmd/rcnvm-serve
go build -o "$DIR/rcnvm-clusterstat" ./cmd/rcnvm-clusterstat

echo "== router mode must reject engine flags (exit 1, flag named)"
for bad in "-data-dir $DATA" "-shards 4" "-replica 127.0.0.1:$P_HTTP" "-fault-rber 1e-4"; do
    RC=0
    # $bad is a flag and its value: split on purpose. timeout bounds the
    # failure mode under test, a router that starts and serves.
    # shellcheck disable=SC2086
    timeout 5 "$DIR/rcnvm-serve" -route -primary "127.0.0.1:$P_TCP@127.0.0.1:$P_HTTP" \
        -tcp ":$RT_TCP" -http "" $bad >"$DIR/reject.log" 2>&1 || RC=$?
    [ "$RC" = 1 ] && grep -q -e "${bad%% *} has no effect on a router" "$DIR/reject.log" || {
        echo "FAIL: -route $bad: exit $RC, want 1 and a message naming ${bad%% *}:" >&2
        cat "$DIR/reject.log" >&2
        exit 1
    }
done
echo "   4 engine flags refused"

echo "== starting 1 primary + 2 replicas + router"
start_primary
start_replica "$R1_TCP" "$R1_HTTP" replica1; R1_PID=$REPLICA_PID
start_replica "$R2_TCP" "$R2_HTTP" replica2; R2_PID=$REPLICA_PID
"$DIR/rcnvm-serve" -route -tcp ":$RT_TCP" -http ":$RT_HTTP" \
    -primary "127.0.0.1:$P_TCP@127.0.0.1:$P_HTTP" \
    -replicas "127.0.0.1:$R1_TCP@127.0.0.1:$R1_HTTP,127.0.0.1:$R2_TCP@127.0.0.1:$R2_HTTP" \
    >"$DIR/router.log" 2>&1 &
RT_PID=$!
PIDS+=("$RT_PID")

wait_ready "$P_HTTP" primary
# The router binds TCP before HTTP, so its /readyz answering means its
# TCP port is open too.
wait_ready "$RT_HTTP" router
query "$RT_TCP" "CREATE TABLE smoke (k, grp, val) CAPACITY 4096" >/dev/null
for i in 0 1 2 3; do
    query "$RT_TCP" "INSERT INTO smoke VALUES ($((i*4)), $i, 1), ($((i*4+1)), $i, 2), ($((i*4+2)), $i, 3), ($((i*4+3)), $i, 4)" >/dev/null
done
wait_ready "$R1_HTTP" replica1
wait_ready "$R2_HTTP" replica2
wait_converged
echo "   seeded 16 rows; replicas converged"

echo "== killing replica1 under read load (zero client errors expected)"
LOAD_OUT="$DIR/load.out"
: >"$LOAD_OUT"
(
    for _ in $(seq 1 200); do
        query "$RT_TCP" "SELECT COUNT(*) FROM smoke" >>"$LOAD_OUT" || echo TRANSPORT_ERROR >>"$LOAD_OUT"
    done
) &
LOAD_PID=$!
sleep 0.3
kill -9 "$R1_PID"
wait "$R1_PID" 2>/dev/null || true
wait "$LOAD_PID"

BAD=$(grep -c -e '"error"' -e TRANSPORT_ERROR "$LOAD_OUT" || true)
TOTAL=$(wc -l <"$LOAD_OUT")
[ "$BAD" = 0 ] || { echo "FAIL: $BAD/$TOTAL reads failed during replica kill:" >&2; grep -m3 -e '"error"' -e TRANSPORT_ERROR "$LOAD_OUT" >&2; exit 1; }
WRONG=$(grep -vc '\[\[16\]\]' "$LOAD_OUT" || true)
[ "$WRONG" = 0 ] || { echo "FAIL: $WRONG/$TOTAL reads returned wrong data" >&2; exit 1; }
echo "   $TOTAL reads, 0 errors while replica1 died"

echo "== federated /cluster/metrics must report the dead replica mid-chaos"
NODE_UP_OK=0
for _ in $(seq 1 50); do
    FED=$(http_get "$RT_HTTP" /cluster/metrics)
    if printf '%s' "$FED" | grep -qF 'rcnvm_cluster_node_up{node="replica-0"} 0' &&
       printf '%s' "$FED" | grep -qF 'rcnvm_cluster_node_up{node="replica-1"} 1' &&
       printf '%s' "$FED" | grep -qF 'rcnvm_cluster_node_up{node="primary"} 1'; then
        NODE_UP_OK=1
        break
    fi
    sleep 0.2
done
[ "$NODE_UP_OK" = 1 ] || {
    echo "FAIL: /cluster/metrics never reflected the killed replica:" >&2
    printf '%s\n' "$FED" | grep -o 'rcnvm_cluster_node_up{[^}]*} .' >&2 || true
    exit 1
}
printf '%s' "$FED" | grep -qF 'rcnvm_cluster_replica_lag_records{node="replica-1"' || {
    echo "FAIL: federated exposition missing node-labeled lag series" >&2
    exit 1
}
# One TYPE line per family, on the federated body and on the primary's own
# exposition: a family declared twice is invalid Prometheus text. http_get
# joins the body's lines, so grep -o puts each declaration on its own line.
for src in federated primary; do
    if [ "$src" = federated ]; then BODY=$FED; else BODY=$(http_get "$P_HTTP" /metrics); fi
    DUP=$(printf '%s\n' "$BODY" | grep -o '# TYPE [^ ]*' | cut -d' ' -f3 | sort | uniq -d)
    [ -z "$DUP" ] || { echo "FAIL: $src exposition declares families twice: $DUP" >&2; exit 1; }
done
echo "   cluster_node_up: replica-0 down, replica-1 + primary up; lag series federated; one TYPE per family"

echo "== restarting replica1: must catch up and byte-converge"
start_replica "$R1_TCP" "$R1_HTTP" replica1; R1_PID=$REPLICA_PID
wait_ready "$R1_HTTP" replica1-restarted
wait_converged
echo "   replica1 caught up; checksums equal"

echo "== rcnvm-clusterstat must show one UP row per node"
STAT=$("$DIR/rcnvm-clusterstat" -router "127.0.0.1:$RT_HTTP")
for node in primary replica-0 replica-1; do
    ROW=$(printf '%s\n' "$STAT" | awk -v n="$node" '$1 == n')
    [ "$(printf '%s\n' "$ROW" | grep -c .)" = 1 ] && [ "$(printf '%s' "$ROW" | awk '{print $3}')" = yes ] || {
        echo "FAIL: rcnvm-clusterstat has no single UP row for $node:" >&2
        printf '%s\n' "$STAT" >&2
        exit 1
    }
done
echo "   primary, replica-0 and replica-1 each one row, UP yes"

echo "== killing the primary, recovering from its WAL"
query "$RT_TCP" "INSERT INTO smoke VALUES (100, 9, 90)" >/dev/null
kill -9 "$P_PID"
wait "$P_PID" 2>/dev/null || true
start_primary
wait_ready "$P_HTTP" primary-recovered
grep -q "records replayed" "$DIR/primary.log" || { echo "FAIL: no recovery banner" >&2; cat "$DIR/primary.log" >&2; exit 1; }
query "$RT_TCP" "INSERT INTO smoke VALUES (101, 9, 91)" >/dev/null
wait_converged
COUNT=$(query "$RT_TCP" "SELECT COUNT(*) FROM smoke")
echo "$COUNT" | grep -q '\[\[18\]\]' || { echo "FAIL: COUNT after primary recovery: $COUNT, want 18" >&2; exit 1; }
echo "   primary recovered; replica set converged on 18 rows"

echo "== SIGINT twice must force-quit non-zero"
SLOW_TCP=$((BASE + 8)); SLOW_HTTP=$((BASE + 9))
"$DIR/rcnvm-serve" -tcp ":$SLOW_TCP" -http ":$SLOW_HTTP" >"$DIR/slow.log" 2>&1 &
SLOW_PID=$!
PIDS+=("$SLOW_PID")
wait_ready "$SLOW_HTTP" slow
# A POST /query whose body stops short of its Content-Length keeps its
# connection active, and the drain's graceful HTTP shutdown waits for it.
exec 5<>"/dev/tcp/127.0.0.1/$SLOW_HTTP"
printf 'POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{"query":' >&5
sleep 0.3
kill -INT "$SLOW_PID"
sleep 0.3
kill -INT "$SLOW_PID"
RC=0
wait "$SLOW_PID" || RC=$?
exec 5<&- 5>&-
[ "$RC" -ne 0 ] || { echo "FAIL: second SIGINT exited 0 (drain was not aborted)" >&2; exit 1; }
grep -q "force quit" "$DIR/slow.log" || { echo "FAIL: no force-quit banner:" >&2; cat "$DIR/slow.log" >&2; exit 1; }
echo "   force quit with exit code $RC"

echo "PASS: replica kill masked, replica re-converged, primary recovered, force quit works"
