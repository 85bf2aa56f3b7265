#!/bin/sh
# The compile daemon drains on SIGTERM and on SIGINT: after either
# signal it must print `stopped` and exit 0 within 30 s.
#
#   sh compile_server_signal_drain.sh <compile_server binary>
#
# CMakeLists.txt registers it as cli_compile_server_signal_drain.
set -u
server=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# drain SIGNAL: boot a daemon on an ephemeral port, wait until it
# listens, send SIGNAL, and check how it ends.
drain() {
    log="$dir/$1.log"
    "$server" --port 0 --threads 1 > "$log" 2>&1 &
    pid=$!
    # Kill the daemon if it has not exited 30 s from now.
    (
        i=0
        while [ "$i" -lt 300 ]; do sleep 0.1; i=$((i + 1)); done
        kill -KILL "$pid" 2> /dev/null
    ) &
    watchdog=$!
    until grep -q 'listening on' "$log"; do
        kill -0 "$watchdog" 2> /dev/null || break
        sleep 0.1
    done
    kill -"$1" "$pid"
    wait "$pid"
    status=$?
    kill "$watchdog" 2> /dev/null
    wait "$watchdog" 2> /dev/null
    if [ "$status" -ne 0 ] || ! grep -q 'stopped' "$log"; then
        echo "SIG$1: compile_server exited with status $status:"
        cat "$log"
        return 1
    fi
    echo "SIG$1: drained"
}

drain TERM && drain INT
