#!/usr/bin/env bash
# Clock-abstraction lint for the elastic protocol code.
#
# The ea-chaos simulation harness can only control time in code that
# reads it through ea_comms::clock (now / sleep / Waiter). This script
# fails if any *protocol* source file reaches for the wall clock
# directly — Instant::now, SystemTime::now, or thread::sleep — outside
# its #[cfg(test)] module. Test modules are exempt (they drive real
# threads); so are the files on the allowlist below, which are OS-real
# by design:
#
#   ea-comms/src/clock.rs        the abstraction itself
#   ea-comms/src/conn.rs         socket idle bookkeeping (kernel-adjacent)
#   ea-comms/src/reactor_*.rs    ea-comms's OS-real event loops (epoll and
#                                its thread-per-connection fallback): poll
#                                timeouts are tied to real epoll_wait
#
# Usage: scripts/clock_lint.sh [repo-root]

set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

protocol_files=(
  crates/ea-runtime/src/membership.rs
  crates/ea-runtime/src/server.rs
  crates/ea-runtime/src/server_core.rs
  crates/ea-runtime/src/elastic.rs
  crates/ea-runtime/src/supervisor.rs
  crates/ea-runtime/src/checkpoint.rs
  crates/ea-runtime/src/threaded.rs
  crates/ea-comms/src/client.rs
  crates/ea-comms/src/fault.rs
  crates/ea-comms/src/tcp.rs
  crates/ea-comms/src/wire.rs
  crates/ea-comms/src/frame.rs
)

status=0
for rel in "${protocol_files[@]}"; do
  file="$root/$rel"
  if [ ! -f "$file" ]; then
    echo "clock_lint: missing protocol file $rel (update the list?)" >&2
    status=1
    continue
  fi
  # Scan only up to the first #[cfg(test)]: test modules may use real
  # time and threads freely.
  hits="$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /Instant::now|SystemTime::now|thread::sleep/ { printf "%s:%d: %s\n", FILENAME, NR, $0 }
  ' "$file")"
  if [ -n "$hits" ]; then
    echo "clock_lint: direct wall-clock use in protocol code (route through ea_comms::clock):" >&2
    echo "$hits" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "clock_lint: OK (${#protocol_files[@]} protocol files clean)"
fi
exit "$status"
