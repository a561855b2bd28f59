#!/usr/bin/env bash
# End-to-end durability checks through the xsm binary: script error
# reporting (exit 1 with the offending line), snapshot+WAL recovery of
# a clean run, crash injection (exit 3) with prefix recovery and log
# repair, attribute deletes, the index-resume path, and insert/delete
# churn.
#
#   bash run_durability.sh XSM CATALOG_XML
set -u
XSM="$1"
CATALOG="$2"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail() { echo "FAIL: $1" >&2; exit 1; }

cat > "$tmp/doc.xml" <<'EOF'
<library><book><title>One</title></book><book><title>Two</title></book></library>
EOF

# --- script robustness: malformed lines name their location, exit 1
cat > "$tmp/bad.upd" <<'EOF'
insert /library <book><title>Three</title></book>
frobnicate /library
EOF
out=$("$XSM" update "$tmp/doc.xml" "$tmp/bad.upd" 2>&1)
[ $? -eq 1 ] || fail "malformed script line must exit 1"
echo "$out" | grep -q "bad.upd:2" || fail "error must name the script line (got: $out)"
echo "$out" | grep -q "frobnicate /library" || fail "error must quote the offending source line (got: $out)"

printf 'insert\n' > "$tmp/bad2.upd"
out=$("$XSM" update "$tmp/doc.xml" "$tmp/bad2.upd" 2>&1)
[ $? -eq 1 ] || fail "missing argument must exit 1"
echo "$out" | grep -q "bad2.upd:1" || fail "missing argument must name the line (got: $out)"

cat > "$tmp/bad3.upd" <<'EOF'
insert /library <book><title>unclosed
EOF
"$XSM" update "$tmp/doc.xml" "$tmp/bad3.upd" >/dev/null 2>&1
[ $? -eq 1 ] || fail "unparsable fragment must exit 1"

"$XSM" update "$tmp/doc.xml" "$tmp/bad.upd" --wal "$tmp/unused.wal" --crash-after 5 --crash-partial 0 >/dev/null 2>&1
st=$?
[ $st -eq 1 ] || fail "script error must win over a later crash point (got $st)"
"$XSM" update "$tmp/doc.xml" "$tmp/bad.upd" --crash-after 1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--crash-after without --wal must exit 2"

# --- clean run: snapshot + WAL replays to the same final state
cat > "$tmp/good.upd" <<'EOF'
insert /library <book><title>Three</title></book>
attr /library/book id b1
sync
content /library/book/title/text() Uno
delete /library/book/title
EOF
"$XSM" update "$tmp/doc.xml" "$tmp/good.upd" --wal "$tmp/w.wal" --snapshot "$tmp/s.snap" --print > "$tmp/direct.xml" 2>/dev/null \
  || fail "logged update run failed"
"$XSM" recover "$tmp/s.snap" --wal "$tmp/w.wal" --print > "$tmp/rec.xml" 2>/dev/null \
  || fail "recover failed"
cmp -s "$tmp/direct.xml" "$tmp/rec.xml" || fail "recovered state differs from the direct run"

# --- injected crash: exit 3, recovery restores the fully-written prefix
"$XSM" update "$tmp/doc.xml" "$tmp/good.upd" --wal "$tmp/wc.wal" --snapshot "$tmp/sc.snap" --crash-after 2 --crash-partial 11 >/dev/null 2>&1
[ $? -eq 3 ] || fail "injected crash must exit 3"
"$XSM" recover "$tmp/sc.snap" --wal "$tmp/wc.wal" --print > "$tmp/crash_rec.xml" 2> "$tmp/crash_rec.err" \
  || fail "recovery after crash failed"
grep -q "torn tail" "$tmp/crash_rec.err" || fail "torn tail not reported"

head -2 "$tmp/good.upd" > "$tmp/prefix.upd"
"$XSM" update "$tmp/doc.xml" "$tmp/prefix.upd" --print > "$tmp/prefix.xml" 2>/dev/null \
  || fail "prefix reference run failed"
cmp -s "$tmp/prefix.xml" "$tmp/crash_rec.xml" || fail "crash recovery must restore the 2-op prefix"

# recovery repaired the log: a second pass sees no torn tail
"$XSM" recover "$tmp/sc.snap" --wal "$tmp/wc.wal" >/dev/null 2> "$tmp/second.err" || fail "re-recover failed"
grep -q "torn" "$tmp/second.err" && fail "log was not repaired on disk"

# --- a rejected line leaves no WAL record: the logged prefix recovers
cat > "$tmp/orphan.upd" <<'EOF2'
insert /library <book><title>Three</title></book>
attr /library/book/title/text() lang en
EOF2
"$XSM" update "$tmp/doc.xml" "$tmp/orphan.upd" --wal "$tmp/wo.wal" --snapshot "$tmp/so.snap" >/dev/null 2>&1
[ $? -eq 1 ] || fail "a rejected attr on a text node must exit 1"
"$XSM" recover "$tmp/so.snap" --wal "$tmp/wo.wal" --print > "$tmp/orphan_rec.xml" 2>/dev/null \
  || fail "a rejected line must not leave a record that breaks recovery"
head -1 "$tmp/orphan.upd" > "$tmp/orphan_prefix.upd"
"$XSM" update "$tmp/doc.xml" "$tmp/orphan_prefix.upd" --print > "$tmp/orphan_prefix.xml" 2>/dev/null \
  || fail "one-line prefix reference run failed"
cmp -s "$tmp/orphan_prefix.xml" "$tmp/orphan_rec.xml" || fail "recovery must restore the valid prefix"

# --- the document element cannot be deleted: a script error, not a crash
printf 'delete /library\n' > "$tmp/root.upd"
out=$("$XSM" update "$tmp/doc.xml" "$tmp/root.upd" --print 2>&1)
[ $? -eq 1 ] || fail "deleting the document element must exit 1 (got: $out)"
echo "$out" | grep -q "root.upd:1" || fail "document-element delete must name the script line (got: $out)"

# --- deleting an attribute deletes it: the query after the delete no
# longer finds it, directly, after WAL replay, and with the index
printf 'delete //product/@sku\nquery //product/@sku\n' > "$tmp/attr.upd"
for flags in "" "--index"; do
  out=$("$XSM" update "$CATALOG" "$tmp/attr.upd" $flags --wal "$tmp/wa.wal" --snapshot "$tmp/sa.snap" 2>/dev/null)
  [ $? -eq 0 ] || fail "attribute delete script exited non-zero ($flags)"
  [ "$out" = "$(printf 'A-101\nA-102')" ] || fail "a deleted attribute must not answer its query ($flags, got: $out)"
  out=$("$XSM" recover "$tmp/sa.snap" --wal "$tmp/wa.wal" $flags --query //product/@sku 2>/dev/null)
  [ "$out" = "$(printf 'A-101\nA-102')" ] || fail "WAL replay must delete the attribute ($flags, got: $out)"
done

"$XSM" load "$tmp/doc.xml" --crash-after 1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "load --crash-after without --wal must exit 2"

# --- index resume: the planner is built once, over the recovered state
"$XSM" recover "$tmp/s.snap" --wal "$tmp/w.wal" --index --query /library/book/title > /dev/null 2> "$tmp/idx.err" \
  || fail "index resume failed"
grep '^{"maintenance"' "$tmp/idx.err" \
  | jq -e '.maintenance.epochs == 1 and .maintenance.applied == 0' >/dev/null \
  || fail "recover --index must build its planner once, after the replay (epochs=1, applied=0)"

# --- churn: 5 000 insert/delete pairs of a paper.  Each delete's
# subtree is released once the planner has had the change, and its
# slots are reused by the next insert; the replay releases the same
# way, and recovers the direct run's bytes
awk 'BEGIN {
  printf "insert /library <paper id=\"p0\"><title>Paper 0</title><year>1950</year></paper>\n"
  for (i = 1; i <= 5000; i++) {
    printf "insert /library <paper id=\"p%d\"><title>Paper %d</title><year>%d</year></paper>\n", i, i, 1950 + i % 70
    printf "delete /library/paper[title=\"Paper %d\"]\n", i - 1
  }
}' > "$tmp/churn.upd"
"$XSM" update "$tmp/doc.xml" "$tmp/churn.upd" --index --wal "$tmp/churn.wal" --snapshot "$tmp/churn.snap" \
  --sync-every 1024 --print > "$tmp/churn_direct.xml" 2>/dev/null || fail "churn run failed"
grep -q 'Paper 5000' "$tmp/churn_direct.xml" || fail "churn run must end with the last paper"
grep -q 'Paper 4999' "$tmp/churn_direct.xml" && fail "churn run must have deleted the paper before it"
"$XSM" recover "$tmp/churn.snap" --wal "$tmp/churn.wal" --print > "$tmp/churn_rec.xml" 2>/dev/null \
  || fail "churn recover failed"
cmp -s "$tmp/churn_direct.xml" "$tmp/churn_rec.xml" || fail "churn: recovered state differs from the direct run"

echo "cli durability tests passed"
