package pg

import (
	"sync/atomic"
	"unsafe"
)

// Chunked, structurally shared columns.
//
// Every snapshot column is a col: a directory of chunks, chunk c
// holding elements [c<<ChunkShift, (c+1)<<ChunkShift). A published
// chunk is never written, so snapshots share chunks: a fold copies the
// directory and rebuilds only the chunks a dirty element falls in (the
// appended tail included), aliasing every other chunk from the
// snapshot it folds. A write therefore costs its delta plus one chunk
// per dirty element and one directory per touched column, not the
// column.
//
// A fixed-width column (labels, endpoints, bitset words) holds element
// i at data[i&chunkMask] of its chunk. A row column (adjacency and
// property rows) gives each chunk offsets into the chunk's data: the
// row of element i is data[off[j]:off[j+1]] for j = i&chunkMask. A
// rebuilt chunk's data holds exactly its own rows from offset 0; a
// chunk opened from a .pgsnap file aliases the file's offsets and the
// whole row section, so opening copies nothing.

// ChunkShift is log2 of the elements per column chunk. Kernels that
// walk a column chunk by chunk (NodeLabelChunk, EdgeLabelChunk,
// EndpointChunk, OutEdgeChunk, InEdgeChunk, NodePropRows, EdgePropRows,
// NodePropWordChunk) index chunk c with element ids from c<<ChunkShift.
// 2048 elements balance the directory a fold copies per touched column
// against the chunk it copies per dirty element (DESIGN.md §5d).
const ChunkShift = 11

const (
	chunkLen  = 1 << ChunkShift
	chunkMask = chunkLen - 1
)

// col is a chunked column of n elements; a row column's chunks hold
// rows row entries in all.
type col[T any] struct {
	n      int
	rows   int
	chunks []chunk[T]
}

// chunk is one chunk of a col: its elements (fixed width) or its rows
// with their offsets (row columns).
type chunk[T any] struct {
	off  []uint32
	data []T
}

func numChunks(n int) int { return (n + chunkMask) >> ChunkShift }

// at returns element i of a fixed-width column.
func (c *col[T]) at(i int) T { return c.chunks[i>>ChunkShift].data[i&chunkMask] }

// row returns the row of element i of a row column.
func (c *col[T]) row(i int) []T {
	ch := &c.chunks[i>>ChunkShift]
	j := i & chunkMask
	return ch.data[ch.off[j]:ch.off[j+1]]
}

// rowLen is len(c.row(i)).
func (c *col[T]) rowLen(i int) int {
	off := c.chunks[i>>ChunkShift].off
	j := i & chunkMask
	return int(off[j+1] - off[j])
}

// chunkData returns the elements of chunk ci, nil past the column.
func (c *col[T]) chunkData(ci int) []T {
	if ci < 0 || ci >= len(c.chunks) {
		return nil
	}
	return c.chunks[ci].data
}

// fixedCol views a flat column as chunks aliasing it (capacity-capped,
// so nothing appended through a chunk can reach its neighbour).
func fixedCol[T any](flat []T) col[T] {
	c := col[T]{n: len(flat), chunks: make([]chunk[T], numChunks(len(flat)))}
	for ci := range c.chunks {
		lo, hi := ci<<ChunkShift, min(ci<<ChunkShift+chunkLen, len(flat))
		c.chunks[ci].data = flat[lo:hi:hi]
	}
	return c
}

// rowCol views a flat row column — n+1 offsets into rows — as chunks
// aliasing it. No offset is read, so a mapped column stays unpaged.
func rowCol[T any](off []uint32, rows []T) col[T] {
	n := len(off) - 1
	c := col[T]{n: n, rows: len(rows), chunks: make([]chunk[T], numChunks(n))}
	for ci := range c.chunks {
		lo, hi := ci<<ChunkShift, min(ci<<ChunkShift+chunkLen, n)
		c.chunks[ci] = chunk[T]{off: off[lo : hi+1 : hi+1], data: rows}
	}
	return c
}

// pieces returns a fixed-width column's chunks; concatenated they are
// the flat column.
func (c *col[T]) pieces() [][]T {
	out := make([][]T, len(c.chunks))
	for i := range c.chunks {
		out[i] = c.chunks[i].data
	}
	return out
}

// appendFlat appends a fixed-width column's elements to dst.
func (c *col[T]) appendFlat(dst []T) []T {
	for i := range c.chunks {
		dst = append(dst, c.chunks[i].data...)
	}
	return dst
}

// flatOff returns a row column's offsets as one flat array, as if its
// rows were concatenated.
func (c *col[T]) flatOff() []uint32 {
	off := make([]uint32, 1, c.n+1)
	for i := range c.chunks {
		ch := &c.chunks[i]
		shift := off[len(off)-1] - ch.off[0]
		for _, o := range ch.off[1:] {
			off = append(off, o+shift)
		}
	}
	return off
}

// rowPieces returns a row column's rows chunk by chunk; concatenated
// they are the flat row array flatOff indexes.
func (c *col[T]) rowPieces() [][]T {
	out := make([][]T, len(c.chunks))
	for i := range c.chunks {
		ch := &c.chunks[i]
		out[i] = ch.data[ch.off[0]:ch.off[len(ch.off)-1]]
	}
	return out
}

// patchCol returns c refolded to n elements: the elements at dirty
// (ascending; ids at or past c.n are appended ones) take get(i), every
// other element keeps its value (zero past c.n). A chunk holding a
// dirty element, or whose length changes, is copied; all others are
// shared with c.
func patchCol[T any, ID ~int](c col[T], dirty []ID, n int, get func(i int) T) col[T] {
	out := col[T]{n: n, chunks: make([]chunk[T], numChunks(n))}
	copy(out.chunks, c.chunks)
	fresh := func(ci int) []T {
		data := make([]T, min(chunkLen, n-ci<<ChunkShift))
		copy(data, c.chunkData(ci))
		return data
	}
	for k := 0; k < len(dirty); {
		ci := int(dirty[k]) >> ChunkShift
		data := fresh(ci)
		for ; k < len(dirty) && int(dirty[k])>>ChunkShift == ci; k++ {
			i := int(dirty[k])
			data[i&chunkMask] = get(i)
		}
		out.chunks[ci].data = data
	}
	for ci := max(numChunks(c.n)-1, 0); ci < len(out.chunks); ci++ {
		if len(out.chunks[ci].data) != min(chunkLen, n-ci<<ChunkShift) {
			out.chunks[ci].data = fresh(ci)
		}
	}
	return out
}

// patchRows is patchCol for a row column: a chunk holding a dirty
// element is rebuilt at its exact size, clean rows copied from c in
// runs and each dirty element's current row (S, converted by put)
// appended in its place. Every appended element must be dirty.
func patchRows[T, S any, ID ~int](c col[T], dirty []ID, n int, row func(i int) []S, put func(data []T, row []S) []T) col[T] {
	out := col[T]{n: n, rows: c.rows, chunks: make([]chunk[T], numChunks(n))}
	copy(out.chunks, c.chunks)
	var cur [][]S
	for k := 0; k < len(dirty); {
		ci := int(dirty[k]) >> ChunkShift
		lo, hi := ci<<ChunkShift, min(ci<<ChunkShift+chunkLen, n)
		oldHi := min(hi, c.n)
		var old chunk[T]
		size := 0
		if lo < oldHi {
			old = c.chunks[ci]
			size = int(old.off[oldHi-lo] - old.off[0])
		}
		out.rows -= size
		end := k
		cur = cur[:0]
		for ; end < len(dirty) && int(dirty[end]) < hi; end++ {
			i := int(dirty[end])
			r := row(i)
			cur = append(cur, r)
			size += len(r)
			if i < oldHi {
				size -= int(old.off[i-lo+1] - old.off[i-lo])
			}
		}
		off := make([]uint32, hi-lo+1)
		data := make([]T, 0, size)
		clean := func(a, b int) { // rows of the clean elements [a, b)
			if m := min(b, oldHi); a < m {
				shift := uint32(len(data)) - old.off[a-lo]
				data = append(data, old.data[old.off[a-lo]:old.off[m-lo]]...)
				for j := a - lo + 1; j <= m-lo; j++ {
					off[j] = old.off[j] + shift
				}
				a = m
			}
			for j := a - lo + 1; j <= b-lo; j++ {
				off[j] = uint32(len(data))
			}
		}
		next := lo
		for j, d := range dirty[k:end] {
			i := int(d)
			clean(next, i)
			data = put(data, cur[j])
			off[i-lo+1] = uint32(len(data))
			next = i + 1
		}
		clean(next, hi)
		out.chunks[ci] = chunk[T]{off: off, data: data}
		out.rows += len(data)
		k = end
	}
	return out
}

// colBuilder appends a column chunk by chunk, each sealed at its exact
// size: a fixed-width chunk fills a chunkLen array, a row chunk's rows
// collect in a reused scratch buffer and are copied out when the chunk
// closes. Loaders build columns with it and never hold spare capacity.
type colBuilder[T any] struct {
	c   col[T]
	cur chunk[T]
}

// add appends one element of a fixed-width column.
func (b *colBuilder[T]) add(x T) {
	if b.cur.data == nil {
		b.cur.data = make([]T, 0, chunkLen)
	}
	b.cur.data = append(b.cur.data, x)
	if b.c.n++; len(b.cur.data) == chunkLen {
		b.c.chunks = append(b.c.chunks, b.cur)
		b.cur.data = nil
	}
}

// endRow closes the row of a row column appended to b.cur.data since
// the previous endRow.
func (b *colBuilder[T]) endRow() {
	if b.cur.off == nil {
		b.cur.off = make([]uint32, 1, chunkLen+1)
	}
	b.cur.off = append(b.cur.off, uint32(len(b.cur.data)))
	if b.c.n++; len(b.cur.off) == chunkLen+1 {
		b.sealRows()
	}
}

func (b *colBuilder[T]) sealRows() {
	b.c.chunks = append(b.c.chunks, chunk[T]{off: b.cur.off, data: exact(b.cur.data)})
	b.c.rows += len(b.cur.data)
	b.cur = chunk[T]{data: b.cur.data[:0]}
}

// exact copies s into an allocation of exactly its length.
func exact[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// done returns the built column; a partly filled last chunk is copied
// to its exact size.
func (b *colBuilder[T]) done() col[T] {
	switch {
	case b.cur.off != nil:
		b.cur.off = exact(b.cur.off)
		b.sealRows()
	case len(b.cur.data) > 0:
		b.c.chunks = append(b.c.chunks, chunk[T]{data: exact(b.cur.data)})
	}
	b.cur = chunk[T]{}
	return b.c
}

// tip guards in-place appends to a backing array that several
// snapshots share, each seeing a prefix of it: the overflow arena, the
// list table and the per-label node lists. n is the length of the
// longest prefix any snapshot sees. Only a fold extending exactly that
// prefix may append in place (claim); any other fold appends to a
// capacity-capped view, which copies. So an older snapshot — one Undo
// returned to, or one a reader still holds — never sees a byte change.
type tip struct{ n atomic.Int64 }

// claim reports whether a fold may append in place behind view, a
// prefix of t's backing array; the first fold from the tip wins and
// holds t until settleTip. A losing fold must append to a clipped view.
func (t *tip) claim(view int) bool {
	return t != nil && t.n.CompareAndSwap(int64(view), -1)
}

// extend returns the slice a fold appends to in place of view, and
// whether it claimed view's tip.
func extend[T any](view []T, t *tip) ([]T, bool) {
	if t.claim(len(view)) {
		return view, true
	}
	return view[:len(view):len(view)], false
}

// settleTip returns the tip of grown, what a fold appended to view:
// view's own tip t, advanced, when the fold claimed t and its appends
// stayed in t's array; else a fresh tip (releasing a claimed t, whose
// array no snapshot reads past view).
func settleTip[T any](t *tip, claimed bool, view, grown []T) *tip {
	if claimed {
		if unsafe.SliceData(grown) == unsafe.SliceData(view) {
			t.n.Store(int64(len(grown)))
			return t
		}
		t.n.Store(int64(len(view)))
	}
	nt := new(tip)
	nt.n.Store(int64(len(grown)))
	return nt
}
