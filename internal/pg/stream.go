package pg

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// ReadCSVStream loads a graph from two CSV streams in the common
// "nodes file + edges file" layout used by bulk importers:
//
//	nodes:  id,label,<prop1>,<prop2>,...
//	edges:  source,target,label,<prop1>,...
//
// Empty cells mean "property absent". Cell values are typed by sniffing
// (SniffValue): integers, floats, booleans, and a JSON-style [a,b,c]
// list form; anything else is a string.
//
// The loader builds the columnar form directly: rows append into flat
// label and property columns, adjacency is finished as CSR by a
// counting sort over the edge columns, and the sealed graph is that
// snapshot, exactly like a graph OpenSnapshot returns. Validation and
// queries after a streamed load therefore read the sealed columns, and
// the load itself skips the per-node slice growth of the mutation path.
// Parsing is pipelined across workers when GOMAXPROCS allows
// (readCSVRecords).
//
// The streamed graph is observably identical to what loading the rows
// one by one through the mutation API yields: same node and edge IDs,
// syms, labels, properties, and adjacency order. The tests pin this
// against the two-phase loader they keep as an oracle.
func ReadCSVStream(nodes, edges io.Reader) (*Graph, error) {
	return ReadCSVStreamContext(context.Background(), nodes, edges)
}

// ReadCSVStreamContext is ReadCSVStream with cancellation: the load
// stops between row batches when ctx is done and returns ctx.Err().
func ReadCSVStreamContext(ctx context.Context, nodes, edges io.Reader) (*Graph, error) {
	sb := newStreamBuilder()
	if err := sb.readNodes(ctx, nodes, readerSize(nodes)); err != nil {
		return nil, err
	}
	if err := sb.readEdges(ctx, edges); err != nil {
		return nil, err
	}
	return sb.seal(), nil
}

// readerSize reports the total byte size of r when it is cheaply
// knowable — in-memory readers and regular files. 0 means unknown; the
// size is only ever a capacity hint.
func readerSize(r io.Reader) int64 {
	switch v := r.(type) {
	case *bytes.Reader:
		return int64(v.Len())
	case *bytes.Buffer:
		return int64(v.Len())
	case *strings.Reader:
		return int64(v.Len())
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// projectRows extrapolates the total record count of a partly-read CSV
// from the bytes consumed so far against the reader's total size,
// bounded so a wild hint can never force an absurd reservation. 0 means
// "no projection".
func projectRows(rows int, consumed, total int64) int {
	if rows <= 0 || consumed <= 0 || total <= consumed {
		return 0
	}
	const maxReserve = 1 << 28
	est := int64(rows) * total / consumed
	if est > maxReserve {
		est = maxReserve
	}
	return int(est)
}

// idTable resolves node ids to dense NodeIDs during a streamed load:
// a power-of-two open-addressing table with linear probing, built for
// the loader's two-phase access pattern (pure inserts while reading
// nodes, then pure lookups while reading edges). Compared to a Go map
// it profiles ~2× cheaper here: probes inline, slots carry no pointers
// for the GC to scan, and growing reinserts by the stored hash without
// touching key bytes.
//
// Bulk exporters — including this package's own WriteCSV — emit node
// ids as a fixed prefix plus a dense decimal counter ("n0", "n1", …).
// While every inserted id keeps that shape, the table stays in a dense
// fast path: the id IS the index, so inserts only record key bytes and
// lookups parse the suffix — zero probe slots allocated, zero DRAM
// touches per resolve. The first nonconforming id materializes the
// hash table from the recorded keys and the load degrades gracefully
// to the general path.
type idTable struct {
	mask  uint64
	slots []idSlot
	keys  []keyRef // id per dense NodeID; len(keys) is the entry count
	arena []byte   // key bytes in insertion order, spanned by keys

	tabled bool   // general path: slots are live; dense invariant broken
	prefix string // dense path: id i is prefix+itoa(i); set on first insert
	hint   int    // last reserve() projection, sizes a late materialize
}

// keyRef locates one id's bytes in the arena. Packing keys into one
// flat buffer keeps hit-compares inside a few compact MB instead of
// chasing pointers across every retained CSV row string, and drops the
// loader's retention of those rows. uint32 offsets bound the arena at
// 4 GiB of id bytes — far beyond the int32 NodeID space's reach —
// and insert checks the bound loudly rather than wrapping.
type keyRef struct{ off, n uint32 }

// key returns the id bytes r spans.
func (t *idTable) key(r keyRef) []byte { return t.arena[r.off : r.off+r.n] }

// keyIs reports whether the id at dense index nid is s. The
// string-conversion compare compiles to a length check plus memequal —
// no allocation.
func (t *idTable) keyIs(nid NodeID, s string) bool {
	return string(t.key(t.keys[nid])) == s
}

// idSlot is one 8-byte probe slot (2M-node tables stay L3-sized): the
// low hash bits pick the slot, so the high 32 bits serve as the stored
// discriminator. tag 0 marks an empty slot; live tags are forced
// nonzero. A tag match is only a candidate — the key compare decides.
type idSlot struct {
	tag uint32
	id  NodeID
}

// idHash is FNV-1a; node ids are short, so the byte loop beats the
// fixed overhead of a runtime hash call.
func idHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// idHashBytes is idHash over a byte view (reserve rehashes arena keys).
func idHashBytes(s []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// idTag extracts the discriminator bits of a hash, nonzero so it can
// never read as an empty slot.
func idTag(h uint64) uint32 {
	if t := uint32(h >> 32); t != 0 {
		return t
	}
	return 1
}

// denseK parses id as prefix followed by the canonical decimal k — no
// leading zeros, digits only, int-sized. While the table is dense this
// fully decides membership: every stored id has exactly this shape, so
// anything that fails to parse was never inserted.
func denseK(id, prefix string) (int, bool) {
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return 0, false
	}
	d := id[len(prefix):]
	if len(d) > 1 && d[0] == '0' {
		return 0, false
	}
	k := 0
	for i := 0; i < len(d); i++ {
		c := d[i]
		if c < '0' || c > '9' || k > (1<<31-1-9)/10 {
			return 0, false
		}
		k = k*10 + int(c-'0')
	}
	return k, true
}

// trimDigits strips the maximal decimal suffix: the remainder is the
// candidate dense prefix of the first inserted id.
func trimDigits(s string) string {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	return s[:i]
}

// appendKey records id's bytes as the next dense entry.
func (t *idTable) appendKey(id string) {
	off := len(t.arena)
	if off+len(id) > int(^uint32(0)) {
		panic("pg: streamed load exceeds 4 GiB of node id bytes")
	}
	t.arena = append(t.arena, id...)
	t.keys = append(t.keys, keyRef{off: uint32(off), n: uint32(len(id))})
}

// sizeSlots grows the probe table to hold n entries at ≤75% load.
// Slots don't keep the index bits of their hash, so reinsertion
// rehashes each key — rare in practice, because the loader pre-sizes
// from the projected row count after the first batch.
func (t *idTable) sizeSlots(n int) {
	want := 16
	for want < n+n/3+1 {
		want <<= 1
	}
	if want <= len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]idSlot, want)
	t.mask = uint64(want - 1)
	for _, sl := range old {
		if sl.tag == 0 {
			continue
		}
		i := idHashBytes(t.key(t.keys[sl.id])) & t.mask
		for t.slots[i].tag != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = sl
	}
}

// materialize leaves the dense fast path: builds the probe table over
// every key recorded so far, after which inserts and lookups take the
// general hashing path. One-time O(n); runs at most once per load.
func (t *idTable) materialize() {
	t.tabled = true
	n := 2*len(t.keys) + 1
	if t.hint > n {
		n = t.hint
	}
	t.sizeSlots(n)
	for nid := range t.keys {
		h := idHashBytes(t.key(t.keys[nid]))
		i := h & t.mask
		for t.slots[i].tag != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = idSlot{tag: idTag(h), id: NodeID(nid)}
	}
}

// reserve sizes the table for n entries. While dense only the key
// storage grows — no probe slots exist to size; the projection is kept
// as a hint so a later materialize allocates slots once at full size.
func (t *idTable) reserve(n int) {
	if k := len(t.keys); n > k {
		t.keys = slices.Grow(t.keys, n-k)
		if k > 0 {
			if est := len(t.arena) / k * n; est > cap(t.arena) {
				t.arena = slices.Grow(t.arena, est-len(t.arena))
			}
		}
	}
	if n > t.hint {
		t.hint = n
	}
	if t.tabled {
		t.sizeSlots(n)
	}
}

// insert claims id for nid, which must be len(t.keys) (NodeIDs are
// dense and assigned in insertion order). It reports false when the id
// is already present.
func (t *idTable) insert(id string, nid NodeID) bool {
	if !t.tabled {
		if len(t.keys) == 0 {
			t.prefix = strings.Clone(trimDigits(id))
		}
		if k, ok := denseK(id, t.prefix); ok && k == len(t.keys) {
			t.appendKey(id)
			return true
		}
		// A duplicate also lands here (its k is below len(t.keys)):
		// the general path below reports it.
		t.materialize()
	}
	if len(t.keys) >= len(t.slots)-len(t.slots)>>2 {
		t.sizeSlots(2*len(t.keys) + 1)
	}
	h := idHash(id)
	tag := idTag(h)
	i := h & t.mask
	for {
		sl := &t.slots[i]
		if sl.tag == 0 {
			sl.tag, sl.id = tag, nid
			t.appendKey(id)
			return true
		}
		if sl.tag == tag && t.keyIs(sl.id, id) {
			return false
		}
		i = (i + 1) & t.mask
	}
}

// lookup resolves id to its dense NodeID.
func (t *idTable) lookup(id string) (NodeID, bool) {
	if len(t.keys) == 0 {
		return 0, false
	}
	if !t.tabled {
		if k, ok := denseK(id, t.prefix); ok && k < len(t.keys) {
			return NodeID(k), true
		}
		return 0, false
	}
	h := idHash(id)
	tag := idTag(h)
	i := h & t.mask
	for {
		sl := t.slots[i]
		if sl.tag == 0 {
			return 0, false
		}
		if sl.tag == tag && t.keyIs(sl.id, id) {
			return sl.id, true
		}
		i = (i + 1) & t.mask
	}
}

// streamBuilder accumulates a graph as the chunked columns a Snapshot
// is made of, each chunk sealed at its exact size (colBuilder). Memory
// stays bounded by the output: rows are parsed straight off the csv
// reader into the columns, so no intermediate per-row structures
// outlive a batch.
type streamBuilder struct {
	syms   symbols
	byName idTable

	// Node columns: label per node, sorted property rows.
	nodeLabels colBuilder[Sym]
	nodeProps  colBuilder[Prop]

	// Edge columns: endpoints, label and property row per edge, and
	// per-node degree counters for the CSR counting sort.
	edgeLabels colBuilder[Sym]
	edgeSrc    colBuilder[NodeID]
	edgeDst    colBuilder[NodeID]
	edgeProps  colBuilder[Prop]
	outDeg     []uint32
	inDeg      []uint32

	// Run-length label cache: consecutive rows of one label intern once.
	lastLabel string
	lastSym   Sym
}

func newStreamBuilder() *streamBuilder { return &streamBuilder{lastSym: NoSym} }

// internLabel interns a node/edge label with a run-length cache.
func (sb *streamBuilder) internLabel(label string) Sym {
	if label != sb.lastLabel || sb.lastSym == NoSym {
		sb.lastLabel, sb.lastSym = label, sb.syms.intern(label)
	}
	return sb.lastSym
}

// reserveNodes grows the id table toward the projected final row
// count: one allocation now instead of the rehashes of its growth. The
// estimate is only a hint — a wrong projection costs slack or leftover
// growth, never correctness. The columns need no reservation: they
// grow a chunk at a time.
func (sb *streamBuilder) reserveNodes(est int) {
	if rows := sb.nodeLabels.c.n; rows > 0 && est > rows {
		sb.byName.reserve(est)
	}
}

// addNodeMeta claims the next dense NodeID for id and appends its
// label column entry; the caller appends the property row. The
// duplicate check rides the insert itself, so each node costs one hash
// operation, not two.
func (sb *streamBuilder) addNodeMeta(id, label string, line int) error {
	if !sb.byName.insert(id, NodeID(sb.nodeLabels.c.n)) {
		return fmt.Errorf("pg: node CSV line %d: duplicate node id %q", line, id)
	}
	sb.nodeLabels.add(sb.internLabel(label))
	return nil
}

// forEachRecord drives the inline (single-worker) streaming read:
// records are handed to fn with their physical starting line, without
// the batch copies the pipelined path needs (the record slice is
// consumed before the next Read reuses it).
func forEachRecord(cr *csv.Reader, readErr func(line int, err error) error, fn func(rec []string, line int) error) error {
	prevLine := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return readErr(csvErrLine(err, prevLine+1), err)
		}
		line, _ := cr.FieldPos(0)
		prevLine = line
		if err := fn(rec, line); err != nil {
			return err
		}
	}
}

// ctxTick checks ctx once per csvBatchRows rows so cancellation is
// bounded without a per-row atomic load.
func ctxTick(ctx context.Context, row int) error {
	if row%csvBatchRows == 0 {
		return ctx.Err()
	}
	return nil
}

func (sb *streamBuilder) readNodes(ctx context.Context, r io.Reader, size int64) error {
	cr, header, err := openCSV(r)
	if err := checkNodeHeader(header, err); err != nil {
		return err
	}
	cols := newPropCols(&sb.syms, header, 2)

	if csvWorkers() == 1 {
		row := 0
		return forEachRecord(cr, nodeReadErr, func(rec []string, line int) error {
			if err := ctxTick(ctx, row); err != nil {
				return err
			}
			row++
			if row == csvBatchRows {
				sb.reserveNodes(projectRows(row, cr.InputOffset(), size))
			}
			if err := checkNodeRecord(rec, len(cols.names), line); err != nil {
				return err
			}
			if err := sb.addNodeMeta(rec[0], rec[1], line); err != nil {
				return err
			}
			np := &sb.nodeProps
			np.cur.data = cols.parseRowInto(np.cur.data, rec, len(np.cur.data))
			np.endRow()
			return nil
		})
	}

	parse := func(b rawBatch) seqBatch {
		out := &streamNodeBatch{
			seq:      b.seq,
			lines:    b.lines,
			consumed: b.consumed,
			ids:      make([]string, len(b.rows)),
			labels:   make([]string, len(b.rows)),
			off:      make([]uint32, len(b.rows)+1),
		}
		for i, rec := range b.rows {
			if err := checkNodeRecord(rec, len(cols.names), b.lines[i]); err != nil {
				out.setErr(i, err)
			} else {
				out.ids[i], out.labels[i] = rec[0], rec[1]
				out.props = cols.parseRowInto(out.props, rec, len(out.props))
			}
			out.off[i+1] = uint32(len(out.props))
		}
		return out
	}
	apply := func(pb seqBatch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := pb.(*streamNodeBatch)
		first := sb.nodeLabels.c.n == 0
		for i := range b.ids {
			if b.errs != nil && b.errs[i] != nil {
				return b.errs[i]
			}
			if err := sb.addNodeMeta(b.ids[i], b.labels[i], b.lines[i]); err != nil {
				return err
			}
			np := &sb.nodeProps
			np.cur.data = append(np.cur.data, b.props[b.off[i]:b.off[i+1]]...)
			np.endRow()
		}
		if first {
			sb.reserveNodes(projectRows(len(b.ids), b.consumed, size))
		}
		return nil
	}
	return readCSVRecords(cr, parse, apply, nodeReadErr)
}

func (sb *streamBuilder) readEdges(ctx context.Context, r io.Reader) error {
	cr, header, err := openCSV(r)
	if err := checkEdgeHeader(header, err); err != nil {
		return err
	}
	cols := newPropCols(&sb.syms, header, 3)
	sb.lastLabel, sb.lastSym = "", NoSym
	sb.outDeg = make([]uint32, sb.nodeLabels.c.n)
	sb.inDeg = make([]uint32, sb.nodeLabels.c.n)

	if csvWorkers() == 1 {
		// Bulk exports are usually grouped by source, so a run-length
		// cache on the endpoint ids spares most of the two map lookups
		// per edge — the id table is the hottest structure of the edge
		// phase at 10⁶ rows.
		var cache endpointCache
		row := 0
		return forEachRecord(cr, edgeReadErr, func(rec []string, line int) error {
			if err := ctxTick(ctx, row); err != nil {
				return err
			}
			row++
			if err := checkEdgeRecord(rec, len(cols.names), line); err != nil {
				return err
			}
			src, dst, err := cache.resolve(&sb.byName, rec, line)
			if err != nil {
				return err
			}
			sb.addEdgeMeta(src, dst, rec[2])
			ep := &sb.edgeProps
			ep.cur.data = cols.parseRowInto(ep.cur.data, rec, len(ep.cur.data))
			ep.endRow()
			return nil
		})
	}

	// byName is complete and read-only after the node phase, so
	// endpoint resolution runs on the parse workers.
	parse := func(b rawBatch) seqBatch {
		out := &streamEdgeBatch{
			seq:      b.seq,
			consumed: b.consumed,
			srcs:     make([]NodeID, len(b.rows)),
			dsts:     make([]NodeID, len(b.rows)),
			labels:   make([]string, len(b.rows)),
			off:      make([]uint32, len(b.rows)+1),
		}
		var cache endpointCache // per-batch: parse runs on one worker
		for i, rec := range b.rows {
			err := checkEdgeRecord(rec, len(cols.names), b.lines[i])
			if err == nil {
				out.srcs[i], out.dsts[i], err = cache.resolve(&sb.byName, rec, b.lines[i])
			}
			if err != nil {
				out.setErr(i, err)
			} else {
				out.labels[i] = rec[2]
				out.props = cols.parseRowInto(out.props, rec, len(out.props))
			}
			out.off[i+1] = uint32(len(out.props))
		}
		return out
	}
	apply := func(pb seqBatch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := pb.(*streamEdgeBatch)
		for i := range b.srcs {
			if b.errs != nil && b.errs[i] != nil {
				return b.errs[i]
			}
			sb.addEdgeMeta(b.srcs[i], b.dsts[i], b.labels[i])
			ep := &sb.edgeProps
			ep.cur.data = append(ep.cur.data, b.props[b.off[i]:b.off[i+1]]...)
			ep.endRow()
		}
		return nil
	}
	return readCSVRecords(cr, parse, apply, edgeReadErr)
}

// endpointCache run-length caches edge endpoint resolution: an id equal
// to the previous row's resolves by string compare instead of a hash
// probe of the id table. Misses produce the exact resolveEndpoints
// diagnostics.
type endpointCache struct {
	srcName, dstName string
	src, dst         NodeID
	srcOK, dstOK     bool
}

func (c *endpointCache) resolve(byName *idTable, rec []string, line int) (src, dst NodeID, err error) {
	if c.srcOK && rec[0] == c.srcName {
		src = c.src
	} else {
		var ok bool
		if src, ok = byName.lookup(rec[0]); !ok {
			return 0, 0, fmt.Errorf("pg: edge CSV line %d: unknown source %q", line, rec[0])
		}
		c.srcName, c.src, c.srcOK = rec[0], src, true
	}
	if c.dstOK && rec[1] == c.dstName {
		dst = c.dst
	} else {
		var ok bool
		if dst, ok = byName.lookup(rec[1]); !ok {
			return 0, 0, fmt.Errorf("pg: edge CSV line %d: unknown target %q", line, rec[1])
		}
		c.dstName, c.dst, c.dstOK = rec[1], dst, true
	}
	return src, dst, nil
}

// addEdgeMeta appends one edge's endpoint and label column entries and
// counts degrees for the CSR counting sort. Endpoints were resolved
// through byName, so they are always valid.
func (sb *streamBuilder) addEdgeMeta(src, dst NodeID, label string) {
	sb.edgeLabels.add(sb.internLabel(label))
	sb.edgeSrc.add(src)
	sb.edgeDst.add(dst)
	sb.outDeg[src]++
	sb.inDeg[dst]++
}

type streamNodeBatch struct {
	seq      int
	lines    []int
	consumed int64
	ids      []string
	labels   []string
	props    []Prop
	off      []uint32
	errs     []error
}

func (b *streamNodeBatch) seqNo() int { return b.seq }

func (b *streamNodeBatch) setErr(i int, err error) {
	if b.errs == nil {
		b.errs = make([]error, len(b.ids))
	}
	b.errs[i] = err
}

type streamEdgeBatch struct {
	seq      int
	consumed int64
	srcs     []NodeID
	dsts     []NodeID
	labels   []string
	props    []Prop
	off      []uint32
	errs     []error
}

func (b *streamEdgeBatch) seqNo() int { return b.seq }

func (b *streamEdgeBatch) setErr(i int, err error) {
	if b.errs == nil {
		b.errs = make([]error, len(b.srcs))
	}
	b.errs[i] = err
}

// seal finishes the columns into a loaded graph (newLoadedGraph): the
// sealed snapshot, as OpenSnapshot returns. The CSR adjacency comes
// from a counting sort over the edge columns (per-chunk prefix-summed
// degrees, then a fill in ascending edge-id order, the order every
// snapshot keeps), each chunk allocated at its exact size. The
// snapshot takes ownership of the builder's columns.
func (sb *streamBuilder) seal() *Graph {
	nodeLabels, nodeProps := sb.nodeLabels.done(), sb.nodeProps.done()
	edgeLabels, edgeSrc, edgeDst, edgeProps := sb.edgeLabels.done(), sb.edgeSrc.done(), sb.edgeDst.done(), sb.edgeProps.done()
	nn := nodeLabels.n
	if sb.outDeg == nil {
		sb.outDeg = make([]uint32, nn)
		sb.inDeg = make([]uint32, nn)
	}
	out := adjacency(nn, sb.outDeg, &edgeSrc)
	in := adjacency(nn, sb.inDeg, &edgeDst)

	words := (nn + 63) / 64
	flat := make([][]uint64, len(sb.syms.names))
	for v := 0; v < nn; v++ {
		for _, p := range nodeProps.row(v) {
			set := flat[p.Sym]
			if set == nil {
				set = make([]uint64, words)
				flat[p.Sym] = set
			}
			set[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	nodePropSet := make([]col[uint64], len(flat))
	for sym, set := range flat {
		if set != nil {
			nodePropSet[sym] = fixedCol(set)
		}
	}

	names := len(sb.syms.names)
	return newLoadedGraph(&Snapshot{
		idx:         newSnapIndexes(),
		epoch:       uint64(nn + edgeLabels.n),
		liveNodes:   nn,
		liveEdges:   edgeLabels.n,
		symNames:    sb.syms.names[:names:names],
		nodeLabels:  nodeLabels,
		edgeLabels:  edgeLabels,
		edgeSrc:     edgeSrc,
		edgeDst:     edgeDst,
		out:         out,
		in:          in,
		nodeProps:   nodeProps,
		edgeProps:   edgeProps,
		nodePropSet: nodePropSet,
	}, sb.syms, nil)
}

// adjacency builds one CSR row column over nn nodes from each node's
// degree and each edge's endpoint on that side, filling rows in edge-id
// order. deg is reused as the fill cursors.
func adjacency(nn int, deg []uint32, end *col[NodeID]) col[EdgeID] {
	c := col[EdgeID]{n: nn, rows: end.n, chunks: make([]chunk[EdgeID], numChunks(nn))}
	for ci := range c.chunks {
		lo, hi := ci<<ChunkShift, min(ci<<ChunkShift+chunkLen, nn)
		off := make([]uint32, hi-lo+1)
		for v := lo; v < hi; v++ {
			off[v-lo+1] = off[v-lo] + deg[v]
			deg[v] = off[v-lo]
		}
		c.chunks[ci] = chunk[EdgeID]{off: off, data: make([]EdgeID, off[hi-lo])}
	}
	for ci := range end.chunks {
		for j, v := range end.chunks[ci].data {
			c.chunks[int(v)>>ChunkShift].data[deg[v]] = EdgeID(ci<<ChunkShift + j)
			deg[v]++
		}
	}
	return c
}
