package pg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pgschema/internal/values"
)

// canonicalBytes is the .pgsnap image of a full rebuild of g's
// snapshot: two graphs with the same content, symbols and epoch have
// the same canonical bytes whatever representation each holds.
func canonicalBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, rebuilt(g)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// everyKindDelta exercises every value kind the log must carry exactly,
// plus same-delta references.
func everyKindDelta() Delta {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	return Delta{
		AddNodes: []AddNodeSpec{
			{Label: "Kinds", Props: []PropEntry{
				{Name: "i", Value: values.Int(math.MinInt64)},
				{Name: "f0", Value: values.Float(math.Copysign(0, -1))},
				{Name: "fnan", Value: values.Float(nan)},
				{Name: "finf", Value: values.Float(math.Inf(-1))},
				{Name: "s", Value: values.String("Åse 💚\x00")},
				{Name: "b", Value: values.Boolean(true)},
				{Name: "id", Value: values.ID("p-1")},
				{Name: "e", Value: values.Enum("HAPPY")},
				{Name: "null", Value: values.Null},
				{Name: "list", Value: values.List(values.Int(1), values.List(), values.List(values.String("deep"), values.Null))},
			}},
			{Label: ""},
		},
		AddEdges:     []AddEdgeSpec{{Src: NewNodeRef(0), Dst: NewNodeRef(1), Label: "e", Props: []PropEntry{{Name: "w", Value: values.Float(-1.5)}}}},
		RelabelNodes: []RelabelSpec{{Node: NewNodeRef(1), Label: "Other"}},
		SetNodeProps: []NodePropSpec{{Node: 0, Name: "x", Value: values.Boolean(false)}},
		DelNodeProps: []NodePropDelSpec{{Node: NewNodeRef(0), Name: "null"}},
		SetEdgeProps: []EdgePropSpec{{Edge: NewEdgeRef(0), Name: "w", Value: values.Int(-3)}},
		DelEdgeProps: []EdgePropDelSpec{{Edge: 0, Name: "since"}},
		RemoveEdges:  []EdgeID{1},
		RemoveNodes:  []NodeID{2},
	}
}

func TestLogRecordRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	g := walGraph()
	recs := []LogRecord{
		{Before: 7, After: 29, Delta: everyKindDelta()},
		{Before: math.MaxUint64 - 3, After: math.MaxUint64, Undone: true},
	}
	for i := 0; i < 50; i++ {
		recs = append(recs, LogRecord{Before: uint64(i), After: uint64(i + 3), Undone: i%3 == 0, Delta: randomDelta(g, rnd)})
	}
	for i := range recs {
		framed := appendLogRecord(nil, &recs[i])
		got, end, err := parseLogRecord(framed, 0)
		if err != nil || end != len(framed) {
			t.Fatalf("record %d: parse: end %d of %d, %v", i, end, len(framed), err)
		}
		// Byte equality of the re-encoding pins every float bit; the
		// structural comparison pins the decoded shape.
		if again := appendLogRecord(nil, &got); !bytes.Equal(again, framed) {
			t.Fatalf("record %d: re-encoding differs", i)
		}
		want := recs[i]
		for _, x := range []*LogRecord{&got, &want} {
			for j := range x.Delta.AddNodes {
				for k := range x.Delta.AddNodes[j].Props {
					x.Delta.AddNodes[j].Props[k].Value = values.String(fmt.Sprintf("%v/%#x", x.Delta.AddNodes[j].Props[k].Value.Kind(),
						valueBits(x.Delta.AddNodes[j].Props[k].Value)))
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: decoded\n%+v\nwant\n%+v", i, got, want)
		}
	}
	for _, p := range everyKindDelta().AddNodes[0].Props {
		enc := appendLogValue(nil, p.Value)
		d := logDecoder{b: enc}
		if v := d.value(0); d.err != nil || len(d.b) != 0 || v.Kind() != p.Value.Kind() || valueBits(v) != valueBits(p.Value) {
			t.Fatalf("value %s: decoded %v (err %v, %d bytes left)", p.Name, v, d.err, len(d.b))
		}
	}
}

// valueBits renders a value's exact payload — float bits, so -0 and NaN
// payloads count — for comparisons.
func valueBits(v values.Value) string {
	switch v.Kind() {
	case values.KindFloat:
		return fmt.Sprint(math.Float64bits(v.AsFloat()))
	case values.KindList:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = valueBits(v.Elem(i))
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	return v.String()
}

func TestLogPayloadRejectsGarbage(t *testing.T) {
	valid := appendLogRecord(nil, &LogRecord{Before: 1, After: 2, Delta: everyKindDelta()})[logFrameSize:]
	cases := map[string][]byte{
		"empty":          {},
		"unknown flags":  append([]byte{0x80}, valid[1:]...),
		"trailing bytes": append(append([]byte(nil), valid...), 0),
		"cut short":      valid[:len(valid)-1],
		"huge count":     {0, 1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"unknown kind":   {0, 1, 2, 0, 0, 0, 1, 0, 1, 1, 'x', 99},
		"bad boolean":    {0, 1, 2, 0, 0, 0, 1, 0, 1, 1, 'x', byte(values.KindBoolean), 2},
	}
	deep := []byte{0, 1, 2, 0, 0, 0, 1, 0, 1, 1, 'x'}
	for i := 0; i <= maxListDepth; i++ {
		deep = append(deep, byte(values.KindList), 1)
	}
	cases["deep list"] = append(deep, byte(values.KindNull))
	for name, p := range cases {
		if _, err := decodeLogPayload(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// walGraph is applyGraph with enough extra authors that random deltas
// never run out of live nodes.
func walGraph() *Graph {
	g := applyGraph()
	for i := 0; i < 10; i++ {
		extra := g.AddNode("Author")
		g.MustAddEdge(extra, NodeID(1), "favoriteBook")
	}
	return g
}

// walRun is a snapshot file, a log of random records written beside it
// through Log.Append, and the live graph's canonical state after each
// record.
type walRun struct {
	snap, log string
	live      *Graph
	sizes     []int64  // log size after record i (sizes[0] is the header)
	states    [][]byte // canonical bytes after record i (states[0] is the snapshot)
	epochs    []uint64
}

func newWALRun(t testing.TB, seed int64, records int) *walRun {
	t.Helper()
	dir := t.TempDir()
	g := walGraph()
	w := &walRun{snap: filepath.Join(dir, "t.pgsnap"), log: filepath.Join(dir, "t.pglog"), live: g}
	if err := os.WriteFile(w.snap, snapBytes(t, g), 0o644); err != nil {
		t.Fatal(err)
	}
	id, err := ReadSnapshotID(w.snap)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CreateLog(w.log, id)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	w.note(t, l)
	rnd := rand.New(rand.NewSource(seed))
	for len(w.sizes) <= records {
		d := randomDelta(g, rnd)
		if rnd.Intn(5) == 0 {
			d.AddNodes = append(d.AddNodes, AddNodeSpec{Label: fmt.Sprintf("Fresh%d", rnd.Intn(4))})
		}
		if rnd.Intn(6) == 0 {
			// A failing delta that interns a new label first: it is never
			// logged, and must leave no trace in the symbol table.
			d.AddNodes = append(d.AddNodes, AddNodeSpec{Label: fmt.Sprintf("Doomed%d", len(w.sizes))})
			d.RelabelNodes = append(d.RelabelNodes, RelabelSpec{Node: NodeID(1 << 40)})
		}
		before := g.Epoch()
		u, err := g.Apply(d)
		if err != nil {
			continue
		}
		rec := LogRecord{Before: before, Delta: d}
		if rnd.Intn(4) == 0 {
			if err := u.Undo(); err != nil {
				t.Fatal(err)
			}
			rec.Undone = true
		}
		rec.After = g.Epoch()
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
		w.note(t, l)
	}
	return w
}

func (w *walRun) note(t testing.TB, l *Log) {
	w.sizes = append(w.sizes, l.Size())
	w.states = append(w.states, canonicalBytes(t, w.live))
	w.epochs = append(w.epochs, w.live.Epoch())
}

// replayState replays the run's snapshot with logData as its log and
// returns the canonical state.
func (w *walRun) replayState(t *testing.T, logData []byte) ([]byte, uint64, ReplayInfo, error) {
	t.Helper()
	if err := os.WriteFile(w.log, logData, 0o644); err != nil {
		t.Fatal(err)
	}
	g, info, err := ReplayLog(w.snap, w.log)
	if err != nil {
		return nil, 0, info, err
	}
	defer g.Close()
	// The one patch replay installs must agree with a full rebuild.
	snapEqual(t, g.Snapshot(), rebuilt(g))
	return canonicalBytes(t, g), g.Epoch(), info, nil
}

func TestReplayLogMatchesLive(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		w := newWALRun(t, seed, 25)
		data, err := os.ReadFile(w.log)
		if err != nil {
			t.Fatal(err)
		}
		n := len(w.sizes) - 1
		got, epoch, info, err := w.replayState(t, data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if info.Records != n || info.Stale || info.LogSize != int64(len(data)) {
			t.Fatalf("seed %d: info %+v, want %d records over %d bytes", seed, info, n, len(data))
		}
		if epoch != w.live.Epoch() || !bytes.Equal(got, w.states[n]) {
			t.Fatalf("seed %d: replayed state at epoch %d differs from the live graph at %d", seed, epoch, w.live.Epoch())
		}
		if !bytes.Equal(got, canonicalBytes(t, w.live)) {
			t.Fatalf("seed %d: live graph changed under the run", seed)
		}
	}
}

// TestReplayLogTornTail cuts the log at every byte offset inside its
// last record: replay must yield the state before that record (or,
// uncut, after it), never an error.
func TestReplayLogTornTail(t *testing.T) {
	w := newWALRun(t, 3, 4)
	data, err := os.ReadFile(w.log)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.sizes) - 1
	for cut := w.sizes[n-1]; cut <= w.sizes[n]; cut++ {
		got, epoch, info, err := w.replayState(t, data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		k := n - 1
		if cut == w.sizes[n] {
			k = n
		}
		if info.Records != k || epoch != w.epochs[k] || !bytes.Equal(got, w.states[k]) {
			t.Fatalf("cut at %d: %d records to epoch %d, want the state after record %d (epoch %d)", cut, info.Records, epoch, k, w.epochs[k])
		}
		if info.LogSize != w.sizes[k] {
			t.Fatalf("cut at %d: valid prefix %d, want %d", cut, info.LogSize, w.sizes[k])
		}
	}
	// A tail the file system extended but never filled reads as zeros.
	zeros := append(append([]byte(nil), data...), make([]byte, 100)...)
	if got, _, info, err := w.replayState(t, zeros); err != nil || !bytes.Equal(got, w.states[n]) || info.LogSize != int64(len(data)) {
		t.Fatalf("zero-filled tail: %+v, %v", info, err)
	}
	// A last record whose checksum fails is cut off too.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	if got, _, _, err := w.replayState(t, bad); err != nil || !bytes.Equal(got, w.states[n-1]) {
		t.Fatalf("corrupt last record: %v", err)
	}
}

func TestReplayLogCorruption(t *testing.T) {
	w := newWALRun(t, 5, 3)
	data, err := os.ReadFile(w.log)
	if err != nil {
		t.Fatal(err)
	}
	at := func(k int) int { return int(w.sizes[k]) } // offset of record k
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), data...)
		f(b)
		return b
	}
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"corrupt middle payload", fmt.Sprintf("record 1 at offset %d: checksum mismatch", at(1)),
			edit(func(b []byte) { b[at(1)+logFrameSize+2] ^= 0x40 })},
		{"implausible middle length", fmt.Sprintf("record 1 at offset %d: implausible record length", at(1)),
			edit(func(b []byte) { binary.LittleEndian.PutUint32(b[at(1):], maxLogRecord+1) })},
		{"epoch gap", fmt.Sprintf("record 1 at offset %d: written at epoch %d, but replay has reached epoch %d", at(1), w.epochs[1]+5, w.epochs[1]),
			appendLogRecord(append([]byte(nil), data[:at(1)]...), &LogRecord{Before: w.epochs[1] + 5, After: w.epochs[1] + 5})},
		{"truncated header", "truncated header", data[:logHeaderSize-1]},
		{"bad header magic", "bad magic", edit(func(b []byte) { b[0] = 'X' })},
		{"bad header checksum", "header checksum mismatch", edit(func(b []byte) { b[28] = 1; b[25] ^= 1 })},
	}
	for _, c := range cases {
		_, _, _, err := w.replayState(t, c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// TestReplayLogStale: a log bound to another snapshot — the crash
// window between a compaction's new snapshot and its fresh log — is
// ignored, and the snapshot alone is the state.
func TestReplayLogStale(t *testing.T) {
	w := newWALRun(t, 7, 3)
	n := len(w.sizes) - 1
	// Compaction: the new snapshot is in place, the old log still beside it.
	if err := os.WriteFile(w.snap, snapBytes(t, w.live), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.log)
	if err != nil {
		t.Fatal(err)
	}
	got, epoch, info, err := w.replayState(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Stale || info.Records != 0 || info.LogSize != 0 {
		t.Fatalf("stale log not ignored: %+v", info)
	}
	if epoch != w.epochs[n] || !bytes.Equal(got, w.states[n]) {
		t.Fatalf("state after compaction crash: epoch %d, want %d", epoch, w.epochs[n])
	}
	// The fresh log then binds to the new snapshot and replays.
	id, err := ReadSnapshotID(w.snap)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CreateLog(w.log, id)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, info, err := ReplayLog(w.snap, w.log); err != nil || info.Stale || info.LogSize != logHeaderSize {
		t.Fatalf("fresh log: %+v, %v", info, err)
	}
}

// TestOpenLogCutsTornTail: appends after a torn tail land where the
// valid prefix ends, so the log stays replayable.
func TestOpenLogCutsTornTail(t *testing.T) {
	w := newWALRun(t, 9, 2)
	f, err := os.OpenFile(w.log, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2}) // a torn frame
	f.Close()
	g, info, err := ReplayLog(w.snap, w.log)
	if err != nil || info.LogSize != w.sizes[len(w.sizes)-1] {
		t.Fatalf("replay: %+v, %v", info, err)
	}
	l, err := OpenLog(w.log, info.LogSize)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Epoch()
	u, err := g.Apply(Delta{SetNodeProps: []NodePropSpec{{Node: 0, Name: "name", Value: values.String("after the cut")}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&LogRecord{Before: before, After: u.Epoch(), Delta: Delta{SetNodeProps: []NodePropSpec{{Node: 0, Name: "name", Value: values.String("after the cut")}}}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	want := canonicalBytes(t, g)
	g.Close()
	g2, info, err := ReplayLog(w.snap, w.log)
	if err != nil || info.Records != len(w.sizes) {
		t.Fatalf("replay after append: %+v, %v", info, err)
	}
	defer g2.Close()
	if !bytes.Equal(canonicalBytes(t, g2), want) {
		t.Fatal("append after a torn tail did not replay")
	}
}

// faultyFile fails the write or sync its fields select.
type faultyFile struct {
	LogFile
	writeErr, syncErr error
	short             bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	if f.short {
		n, _ := f.LogFile.Write(p[:len(p)/2])
		return n, nil
	}
	return f.LogFile.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.LogFile.Sync()
}

func TestLogAppendFaults(t *testing.T) {
	for _, ff := range []*faultyFile{{writeErr: fmt.Errorf("disk gone")}, {short: true}, {syncErr: fmt.Errorf("sync failed")}} {
		w := newWALRun(t, 11, 1)
		l, err := OpenLog(w.log, w.sizes[1])
		if err != nil {
			t.Fatal(err)
		}
		l.WrapFile(func(f LogFile) LogFile { ff.LogFile = f; return ff })
		e := w.live.Epoch()
		err = l.Append(&LogRecord{Before: e, After: e + 1, Delta: Delta{SetNodeProps: []NodePropSpec{{Node: 0, Name: "name", Value: values.Int(1)}}}})
		l.Close()
		if err == nil || l.Size() != w.sizes[1] {
			t.Fatalf("%+v: append error %v, size %d", ff, err, l.Size())
		}
		// Whatever reached the file, the unacknowledged record replays
		// into the state before it or — when only the sync failed, so
		// the whole record may be on disk — after it; never an error.
		data, _ := os.ReadFile(w.log)
		got, epoch, _, err := w.replayState(t, data)
		if err != nil {
			t.Fatalf("%+v: replay after a failed append: %v", ff, err)
		}
		if !bytes.Equal(got, w.states[1]) && (ff.syncErr == nil || epoch != e+1) {
			t.Fatalf("%+v: replay after a failed append reached epoch %d, a state neither before nor after the record", ff, epoch)
		}
	}
}

func TestApplyFailureForgetsSymbols(t *testing.T) {
	g := walGraph()
	syms := g.SymCount()
	before := canonicalBytes(t, g)
	_, err := g.Apply(Delta{
		AddNodes:     []AddNodeSpec{{Label: "Brand", Props: []PropEntry{{Name: "new", Value: values.Int(1)}}}},
		RelabelNodes: []RelabelSpec{{Node: 999, Label: "AlsoNew"}},
	})
	if err == nil {
		t.Fatal("apply of a dangling relabel succeeded")
	}
	if g.SymCount() != syms {
		t.Fatalf("failed apply left %d new symbols", g.SymCount()-syms)
	}
	if _, ok := g.Sym("Brand"); ok {
		t.Fatal("failed apply left its label interned")
	}
	if !bytes.Equal(canonicalBytes(t, g), before) {
		t.Fatal("failed apply changed the graph")
	}
	if _, err := g.Apply(Delta{AddNodes: []AddNodeSpec{{Label: "Brand"}}}); err != nil {
		t.Fatal(err)
	}
	if s, _ := g.Sym("Brand"); int(s) != syms {
		t.Fatalf("re-interned label got sym %d, want %d", s, syms)
	}
}

// FuzzReplayLog: any bytes after a valid log header either replay or
// error — never panic — and a replay leaves a snapshot that agrees with
// a full rebuild.
func FuzzReplayLog(f *testing.F) {
	w := newWALRun(f, 13, 12)
	data, err := os.ReadFile(w.log)
	if err != nil {
		f.Fatal(err)
	}
	body := data[logHeaderSize:]
	f.Add(body)
	for k := 1; k < len(w.sizes); k++ {
		f.Add(data[w.sizes[k-1]:w.sizes[k]])
	}
	f.Add(appendLogRecord(nil, &LogRecord{Before: w.epochs[0], After: w.epochs[0] + 30, Delta: everyKindDelta()}))
	f.Add(body[:len(body)/2])
	header := data[:logHeaderSize]
	f.Fuzz(func(t *testing.T, tail []byte) {
		g, err := OpenSnapshot(w.snap)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		info := ReplayInfo{Snapshot: SnapshotID{}}
		if info.Snapshot, err = snapshotIDOf(g.mapping.data); err != nil {
			t.Fatal(err)
		}
		if err := g.replay(append(append([]byte(nil), header...), tail...), &info); err != nil {
			return
		}
		snapEqual(t, g.Snapshot(), rebuilt(g))
	})
}

// BenchmarkReplayLog replays logs of small deltas over a ~10⁵-element
// snapshot. ns/record stays flat as the record count grows: records
// apply into one overlay and one fold at the end covers them all.
func BenchmarkReplayLog(b *testing.B) {
	const authors = 25_000 // ~10⁵ elements: authors, books, two edges each
	g := New()
	var books []NodeID
	for i := 0; i < authors; i++ {
		a := g.AddNode("Author")
		g.SetNodeProp(a, "name", values.String(fmt.Sprintf("author-%d", i)))
		bk := g.AddNode("Book")
		g.SetNodeProp(bk, "pages", values.Int(int64(i)))
		g.MustAddEdge(a, bk, "favoriteBook")
		g.MustAddEdge(bk, a, "author")
		books = append(books, bk)
	}
	dir := b.TempDir()
	snap := filepath.Join(dir, "b.pgsnap")
	if err := os.WriteFile(snap, snapBytes(b, g), 0o644); err != nil {
		b.Fatal(err)
	}
	id, err := ReadSnapshotID(snap)
	if err != nil {
		b.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	var logData []byte
	var sizes []int
	logData = append(logData, logHeader(id)...)
	for i := 0; i < 10_000; i++ {
		var d Delta
		if i%2 == 0 {
			d.SetNodeProps = []NodePropSpec{{Node: books[rnd.Intn(len(books))], Name: "pages", Value: values.Int(int64(i))}}
		} else {
			d.AddNodes = []AddNodeSpec{{Label: "Author", Props: []PropEntry{{Name: "name", Value: values.String(fmt.Sprintf("new-%d", i))}}}}
			d.AddEdges = []AddEdgeSpec{{Src: NewNodeRef(0), Dst: books[rnd.Intn(len(books))], Label: "favoriteBook"}}
		}
		before := g.Epoch()
		if _, err := g.apply(d); err != nil {
			b.Fatal(err)
		}
		logData = appendLogRecord(logData, &LogRecord{Before: before, After: g.Epoch(), Delta: d})
		sizes = append(sizes, len(logData))
	}
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			logPath := filepath.Join(dir, fmt.Sprintf("b%d.pglog", n))
			if err := os.WriteFile(logPath, logData[:sizes[n-1]], 0o644); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rg, info, err := ReplayLog(snap, logPath)
				if err != nil || info.Records != n {
					b.Fatalf("replay: %d records, %v", info.Records, err)
				}
				rg.Snapshot()
				rg.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
