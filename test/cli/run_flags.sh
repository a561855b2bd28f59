#!/usr/bin/env bash
# The CLI vocabulary is a contract: every subcommand accepts exactly
# the options listed in flags.expected, with the same value names and
# the same defaults (the "absent=" value of --help=plain).  A dropped,
# renamed, added or re-defaulted flag fails this check; a deliberate
# change updates flags.expected in the same commit.
#
# The --domains default follows the machine's core count, so it is
# compared as "auto"; the socket default lives under TMPDIR, pinned
# to /tmp here.
set -u
XSM="$1"
EXPECTED="$2"
fail() { echo "FAIL: $1" >&2; exit 1; }

actual=$(
  for cmd in $(cut -d' ' -f1 "$EXPECTED" | uniq); do
    TMPDIR=/tmp "$XSM" "$cmd" --help=plain 2>/dev/null \
      | awk -v c="$cmd" '/^OPTIONS/ { on = 1; next } /^[A-Z]/ { on = 0 }
          on && /^       -/ { sub(/^ +/, ""); print c " " $0 }' \
      | sed -E 's/^(.* --domains=[A-Z]+) \(absent=[0-9]+\)$/\1 (absent=auto)/'
  done
)
[ -n "$actual" ] || fail "no options extracted from --help=plain"
diff <(printf '%s\n' "$actual") "$EXPECTED" >&2 \
  || fail "the CLI options differ from flags.expected (< actual, > expected)"

echo "cli flags: $(printf '%s\n' "$actual" | wc -l) options match"
