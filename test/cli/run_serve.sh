#!/usr/bin/env bash
# End-to-end checks of the session daemon through the xsm binary:
# serve/client round-trips, the graceful-shutdown checkpoint
# (snapshot written, WAL removed, recover reproduces the final
# state), crash recovery from the WAL alone after SIGKILL, corrupt
# WAL refusal at boot (exit 3), live vs replayed label upkeep
# (byte-identical labelled checkpoints), a paged daemon writing the
# resident daemon's WAL and checkpoints byte for byte (and, with
# --index, answering its queries), the paged daemon's refusal of a
# typed snapshot, one WAL fsync per update in both commit modes, the
# spans a daemon under --trace FILE writes, and the bench-serve smoke
# run.
set -u
XSM="$1"
tmp=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT
fail() { echo "FAIL: $1" >&2; exit 1; }

sock="$tmp/s.sock"

# wait until the daemon answers the handshake (or die with its log)
await() {
  for _ in $(seq 1 100); do
    if "$XSM" client --socket "$sock" --stats >/dev/null 2>&1; then return 0; fi
    kill -0 "$server_pid" 2>/dev/null || { cat "$tmp/serve.log" >&2; fail "server exited during startup"; }
    sleep 0.05
  done
  cat "$tmp/serve.log" >&2
  fail "server did not come up"
}

cat > "$tmp/doc.xml" <<'EOF'
<library><book id="b1"><title>One</title></book><book id="b2"><title>Two</title></book></library>
EOF

# --- a schema that violates UPA is refused at boot by the schema gate,
#     with the finding lines and exit code of `xsm validate`, instead
#     of answering Validate requests by the non-UPA fallback
cat > "$tmp/ambiguous.xsd" <<'EOF'
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="memo">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="header" type="xs:string"/>
        <xsd:sequence><xsd:element name="note" type="xs:string" minOccurs="0"/></xsd:sequence>
        <xsd:sequence><xsd:element name="note" type="xs:token"/></xsd:sequence>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
EOF
printf '<memo><header>h</header><note>n</note></memo>' > "$tmp/memo.xml"
"$XSM" validate "$tmp/ambiguous.xsd" "$tmp/memo.xml" > /dev/null 2> "$tmp/validate.err"
[ $? -eq 2 ] || fail "validate must refuse the ambiguous schema with exit 2"
grep -q '^error \[upa\] memo: ' "$tmp/validate.err" || fail "validate must print the [upa] finding"
timeout 10 "$XSM" serve --socket "$sock" --doc "$tmp/memo.xml" --schema "$tmp/ambiguous.xsd" \
  > /dev/null 2> "$tmp/serve.err"
[ $? -eq 2 ] || fail "serve must refuse the ambiguous schema with exit 2"
cmp -s "$tmp/validate.err" "$tmp/serve.err" \
  || fail "serve must print the finding lines of validate (got: $(cat "$tmp/serve.err"))"
[ -e "$sock" ] && fail "a refused schema must not leave a socket behind"

# --- sessions: query, update, query again sees the new state
"$XSM" serve --socket "$sock" --doc "$tmp/doc.xml" --wal "$tmp/w.wal" \
  --snapshot "$tmp/s.snap" --domains 2 > "$tmp/serve.log" 2>&1 &
server_pid=$!
await

out=$("$XSM" client --socket "$sock" --query '//title' 2>/dev/null)
[ "$out" = "$(printf 'One\nTwo')" ] || fail "initial query (got: $out)"

"$XSM" client --socket "$sock" --update 'insert /library <book id="b3"><title>Three</title></book>' \
  >/dev/null 2>&1 || fail "insert over the session failed"
"$XSM" client --socket "$sock" --update 'content /library/book/title/text() Uno' \
  >/dev/null 2>&1 || fail "content over the session failed"

out=$("$XSM" client --socket "$sock" --query '//title' 2>/dev/null)
[ "$out" = "$(printf 'Uno\nTwo\nThree')" ] || fail "post-update query (got: $out)"

# --- one update grammar: a malformed line reads the same over the
# wire as in an `xsm update` script
out=$("$XSM" client --socket "$sock" --update 'insert /library' 2>&1)
[ $? -eq 1 ] || fail "a malformed update request must exit 1 (got: $out)"
printf 'insert /library\n' > "$tmp/mal.upd"
script_out=$("$XSM" update "$tmp/doc.xml" "$tmp/mal.upd" 2>&1 | head -1)
[ "$script_out" = "$tmp/mal.upd:1: $out" ] \
  || fail "client and script must report the same message (client: $out; script: $script_out)"

"$XSM" client --socket "$sock" --stats 2>/dev/null | grep -q '"submissions"' \
  || fail "stats must report commit counters"

# --- graceful shutdown: checkpoint = snapshot written, WAL removed
"$XSM" client --socket "$sock" --shutdown >/dev/null 2>&1 || fail "shutdown request failed"
wait "$server_pid" || fail "server exited non-zero after shutdown"
server_pid=""
[ -f "$tmp/s.snap" ] || fail "graceful shutdown must write the snapshot"
[ ! -f "$tmp/w.wal" ] || fail "the checkpoint must remove the subsumed WAL"
out=$("$XSM" recover "$tmp/s.snap" --query '//title' 2>/dev/null)
[ "$out" = "$(printf 'Uno\nTwo\nThree')" ] || fail "recover after shutdown (got: $out)"

# --- serve -> SIGKILL: the WAL alone carries the committed updates
"$XSM" snapshot "$tmp/doc.xml" "$tmp/base.snap" >/dev/null 2>&1 || fail "base snapshot failed"
"$XSM" serve --socket "$sock" --snapshot "$tmp/base.snap" --wal "$tmp/wc.wal" \
  --domains 2 > "$tmp/serve.log" 2>&1 &
server_pid=$!
await
"$XSM" client --socket "$sock" --update 'attr /library crashed yes' >/dev/null 2>&1 \
  || fail "update before crash failed"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null
server_pid=""
[ -f "$tmp/wc.wal" ] || fail "the WAL must survive a crash"
out=$("$XSM" recover "$tmp/base.snap" --wal "$tmp/wc.wal" --query '/library/@crashed' 2>/dev/null)
[ "$out" = "yes" ] || fail "crash recovery must replay the committed update (got: $out)"

# --- a snapshot paired with garbage where the WAL should be: exit 3
printf 'not a wal at all' > "$tmp/bad.wal"
"$XSM" serve --socket "$sock" --snapshot "$tmp/base.snap" --wal "$tmp/bad.wal" \
  > "$tmp/serve.log" 2>&1
[ $? -eq 3 ] || fail "corrupt WAL at boot must exit 3"
grep -q "not a WAL file" "$tmp/serve.log" || fail "corrupt WAL must be named in the error"

# --- SIGTERM is a graceful stop too
"$XSM" serve --socket "$sock" --doc "$tmp/doc.xml" --snapshot "$tmp/t.snap" \
  > "$tmp/serve.log" 2>&1 &
server_pid=$!
await
kill -TERM "$server_pid"
wait "$server_pid" || fail "SIGTERM must stop the server cleanly"
server_pid=""
[ -f "$tmp/t.snap" ] || fail "SIGTERM must still write the checkpoint snapshot"

# --- live and replayed label upkeep agree: one labelled daemon takes
# the updates and checkpoints; a second takes the same acked updates,
# is SIGKILLed, recovers them from its WAL and checkpoints.  The
# snapshots persist the labels, so they must be byte-identical.  The
# updates land an inserted node before the first child (an attribute
# ahead of children), between two siblings, after the last child and
# as the first child of a leaf, and delete a labelled subtree.
label_updates=(
  'attr /library owner city'
  'attr /library/book lang en'
  'insert /library <paper><title>P</title></paper>'
  'insert /library <empty/>'
  'insert-text /library/empty first'
  'delete /library/book'
  'insert /library <book id="b4"><title>Four</title></book>'
)
send_label_updates() {
  for u in "${label_updates[@]}"; do
    "$XSM" client --socket "$sock" --update "$u" >/dev/null 2>&1 || fail "labelled update failed: $u"
  done
}
"$XSM" snapshot "$tmp/doc.xml" "$tmp/la.snap" --labels >/dev/null 2>&1 \
  || fail "labelled base snapshot failed"
for copy in lb pa pb ri pi; do cp "$tmp/la.snap" "$tmp/$copy.snap"; done
"$XSM" serve --socket "$sock" --snapshot "$tmp/la.snap" --wal "$tmp/la.wal" --labels \
  > "$tmp/serve.log" 2>&1 &
server_pid=$!
await
send_label_updates
cp "$tmp/la.wal" "$tmp/la.live.wal"
"$XSM" client --socket "$sock" --shutdown >/dev/null 2>&1 || fail "labelled shutdown failed"
wait "$server_pid" || fail "labelled server exited non-zero after shutdown"
server_pid=""
"$XSM" serve --socket "$sock" --snapshot "$tmp/lb.snap" --wal "$tmp/lb.wal" --labels \
  > "$tmp/serve.log" 2>&1 &
server_pid=$!
await
send_label_updates
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null
server_pid=""
[ -s "$tmp/lb.wal" ] || fail "the labelled WAL must survive a crash"
cp "$tmp/lb.wal" "$tmp/lb.crash.wal"
"$XSM" serve --socket "$sock" --snapshot "$tmp/lb.snap" --wal "$tmp/lb.wal" --labels \
  > "$tmp/serve.log" 2>&1 &
server_pid=$!
await
grep -q "recovered: .* 7 replayed" "$tmp/serve.log" \
  || { cat "$tmp/serve.log" >&2; fail "the restarted daemon must replay all 7 updates"; }
"$XSM" client --socket "$sock" --shutdown >/dev/null 2>&1 || fail "recovered shutdown failed"
wait "$server_pid" || fail "recovered server exited non-zero after shutdown"
server_pid=""
cmp -s "$tmp/la.snap" "$tmp/lb.snap" \
  || fail "live and replayed label upkeep must checkpoint identical snapshots"
out=$("$XSM" recover "$tmp/lb.snap" --query '//title' 2>/dev/null)
[ "$out" = "$(printf 'Two\nP\nFour')" ] || fail "recovered labelled state (got: $out)"

# --- one served store: a paged daemon (block storage alone, a 2-block
# pool) takes the same updates, once to a graceful shutdown and once
# to SIGKILL and a paged restart.  Its WAL and its checkpoints must be
# the resident daemon's, byte for byte.
serve_paged() {
  "$XSM" serve --socket "$sock" --snapshot "$tmp/$1.snap" --wal "$tmp/$1.wal" --labels \
    --page-file "$tmp/$1.pages" --pool-capacity 2 > "$tmp/serve.log" 2>&1 &
  server_pid=$!
  await
}
serve_paged pa
send_label_updates
cmp -s "$tmp/la.live.wal" "$tmp/pa.wal" || fail "the paged daemon must log the resident WAL"
"$XSM" client --socket "$sock" --shutdown >/dev/null 2>&1 || fail "paged shutdown failed"
wait "$server_pid" || fail "paged server exited non-zero after shutdown"
server_pid=""
cmp -s "$tmp/la.snap" "$tmp/pa.snap" \
  || fail "the paged daemon must checkpoint the resident snapshot"
serve_paged pb
send_label_updates
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null
server_pid=""
cmp -s "$tmp/lb.crash.wal" "$tmp/pb.wal" || fail "the paged WAL must survive a crash unchanged"
serve_paged pb
grep -q "recovered: .* 7 replayed" "$tmp/serve.log" \
  || { cat "$tmp/serve.log" >&2; fail "the paged restart must replay all 7 updates"; }
"$XSM" client --socket "$sock" --shutdown >/dev/null 2>&1 || fail "paged recovered shutdown failed"
wait "$server_pid" || fail "paged recovered server exited non-zero after shutdown"
server_pid=""
cmp -s "$tmp/la.snap" "$tmp/pb.snap" \
  || fail "a recovered paged daemon must checkpoint the resident snapshot"

# --- the same, indexed: a resident and a paged daemon, both with
# --index, take the updates with queries after each.  The paged
# daemon's planner reads the descriptive schema, block lists and nids;
# its replies and its WAL must be the resident planner's.
index_queries=(
  '//title' '/library/book/@id' "//book[@lang = 'en']/title" "/library/*[title = 'P']"
  '//book[title]/@id' '//text()'
)
serve_indexed() {
  "$XSM" serve --socket "$sock" --snapshot "$tmp/$1.snap" --wal "$tmp/$1.wal" --labels --index \
    "${@:2}" > "$tmp/serve.log" 2>&1 &
  server_pid=$!
  await
  for u in "${label_updates[@]}"; do
    "$XSM" client --socket "$sock" --update "$u" >> "$tmp/$1.replies" 2>/dev/null \
      || fail "indexed update failed: $u"
    for q in "${index_queries[@]}"; do
      "$XSM" client --socket "$sock" --query "$q" >> "$tmp/$1.replies" 2>/dev/null \
        || fail "indexed query failed: $q"
    done
  done
  cp "$tmp/$1.wal" "$tmp/$1.live.wal"
  "$XSM" client --socket "$sock" --shutdown >/dev/null 2>&1 || fail "indexed shutdown failed"
  wait "$server_pid" || fail "indexed server exited non-zero after shutdown"
  server_pid=""
}
serve_indexed ri
serve_indexed pi --page-file "$tmp/pi.pages" --pool-capacity 2
grep -q Four "$tmp/ri.replies" || fail "the indexed daemon must answer the queries"
cmp -s "$tmp/ri.replies" "$tmp/pi.replies" \
  || { diff "$tmp/ri.replies" "$tmp/pi.replies" >&2; fail "the paged planner must answer as the resident one"; }
cmp -s "$tmp/ri.live.wal" "$tmp/pi.live.wal" || fail "the paged indexed daemon must log the resident WAL"
cmp -s "$tmp/la.snap" "$tmp/pi.snap" \
  || fail "the paged indexed daemon must checkpoint the resident snapshot"

# --- block storage keeps no type annotations: a typed snapshot served
# paged is refused with one line and exit 2, rather than written back
# poorer at shutdown
cat > "$tmp/doc.xsd" <<'EOF'
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="library">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="book" maxOccurs="unbounded">
          <xsd:complexType>
            <xsd:sequence><xsd:element name="title" type="xsd:string"/></xsd:sequence>
            <xsd:attribute name="id" type="xsd:ID"/>
          </xsd:complexType>
        </xsd:element>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
EOF
"$XSM" snapshot "$tmp/doc.xml" "$tmp/typed.snap" --schema "$tmp/doc.xsd" >/dev/null 2>&1 \
  || fail "typed snapshot failed"
cp "$tmp/typed.snap" "$tmp/typed.orig.snap"
timeout 10 "$XSM" serve --socket "$sock" --snapshot "$tmp/typed.snap" \
  --page-file "$tmp/typed.pages" > /dev/null 2> "$tmp/serve.err"
[ $? -eq 2 ] || fail "a typed snapshot served paged must exit 2"
[ "$(wc -l < "$tmp/serve.err")" -eq 1 ] \
  || fail "the refusal must be one line (got: $(cat "$tmp/serve.err"))"
grep -q "type annotation" "$tmp/serve.err" || fail "the refusal must name what is lost"
cmp -s "$tmp/typed.snap" "$tmp/typed.orig.snap" || fail "a refused boot must leave the snapshot as it was"
[ -e "$sock" ] && fail "a refused boot must not leave a socket behind"

# --- one fsync per update: each update's force pays the WAL fsync
#     that covers it, with group commit and in the --no-group-commit
#     baseline alike, and no append pays one of its own
wal_syncs() {
  "$XSM" client --socket "$sock" --stats 2>/dev/null | grep -o '"wal.syncs":[0-9]*' | cut -d: -f2
}
for mode in "" --no-group-commit; do
  rm -f "$tmp/f.wal"
  "$XSM" serve --socket "$sock" --doc "$tmp/doc.xml" --wal "$tmp/f.wal" $mode \
    > "$tmp/serve.log" 2>&1 &
  server_pid=$!
  await
  before=$(wal_syncs)
  for i in 1 2 3 4 5; do
    "$XSM" client --socket "$sock" --update "attr /library seq s$i" >/dev/null 2>&1 \
      || fail "update $i failed ($mode)"
  done
  after=$(wal_syncs)
  [ -n "$before" ] && [ -n "$after" ] || fail "stats must report wal.syncs ($mode)"
  [ $((after - before)) -eq 5 ] \
    || fail "5 updates must pay 5 fsyncs ${mode:-with group commit} (got $((after - before)))"
  "$XSM" client --socket "$sock" --shutdown >/dev/null 2>&1 || fail "shutdown failed ($mode)"
  wait "$server_pid" || fail "server exited non-zero after shutdown ($mode)"
  server_pid=""
done

# --- spans: the daemon records only traced requests' spans, but one
#     started with --trace FILE records every request's, untraced ones
#     included, and writes them at shutdown
"$XSM" serve --socket "$sock" --doc "$tmp/doc.xml" --index --trace "$tmp/daemon.json" \
  > "$tmp/serve.log" 2>&1 &
server_pid=$!
await
"$XSM" client --socket "$sock" --query '//title' >/dev/null 2>&1 \
  || fail "query under --trace failed"
"$XSM" client --socket "$sock" --update 'attr /library seq s' >/dev/null 2>&1 \
  || fail "update under --trace failed"
"$XSM" client --socket "$sock" --shutdown >/dev/null 2>&1 || fail "--trace shutdown failed"
wait "$server_pid" || fail "--trace server exited non-zero after shutdown"
for span in serve.query serve.lock serve.latch serve.plan plan.index serve.update serve.commit; do
  grep -q "\"name\":\"$span\"" "$tmp/daemon.json" \
    || fail "--trace must record the $span span of an untraced request"
done

# --- bench-serve smoke: spawns its own server, reports percentiles
out=$("$XSM" bench-serve --smoke 2>&1) || { echo "$out" >&2; fail "bench-serve --smoke failed"; }
echo "$out" | grep -q "p50=" || fail "bench-serve must report percentiles (got: $out)"
echo "$out" | grep -q "commit:" || fail "bench-serve must report commit batching (got: $out)"

echo "serve CLI: OK"
