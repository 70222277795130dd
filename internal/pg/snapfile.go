package pg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"unsafe"

	"pgschema/internal/values"
)

// The .pgsnap format: a versioned, mmap-able serialization of Snapshot.
//
//	header (80 bytes, little-endian)
//	  0   magic "PGSNAP\r\n"
//	  8   format version (u32)
//	  12  byte-order mark 0x0A0B0C0D, written in host order
//	  16  epoch (u64)
//	  24  node bound (u64)        32  edge bound (u64)
//	  40  live nodes (u64)        48  live edges (u64)
//	  56  symbol count (u64)      64  list count (u64)
//	  72  section count (u32)     76  header CRC (u32, crc32c over
//	                                  header[0:76] ++ section table)
//	section table (19 × 24 bytes)
//	  {offset u64, size u64, crc32c u32, element size u32}
//	sections, each 8-byte aligned, zero-padded between
//
// Every section is the raw bytes of one snapshot column, so writing is
// whole-slice copies and opening aliases the mapping with zero copies.
// Property rows are stored as 16-byte pointer-free propRecs plus one
// shared string arena; list values (rare) are flattened into listRecs
// spans and decoded eagerly at open, bounded by the header list count.
//
// Trust model: a default open verifies the header CRC, the full section
// geometry (bounds, alignment, element sizes, header-implied counts),
// and checksums + decodes the sections it materializes eagerly (symbol
// table, list values) — O(header + symbols) plus one chunk-directory
// entry per 2048 elements of each column, with no column byte read: data
// columns page in lazily on first access. The Verify option
// additionally checksums every section and deep-validates structure
// (offset monotonicity, ID ranges, record payload bounds); it is the
// mode for files that crossed a trust boundary, at the price of reading
// the whole file.

const (
	snapMagic       = "PGSNAP\r\n"
	snapVersion     = uint32(1)
	snapBOM         = uint32(0x0A0B0C0D)
	snapHeaderSize  = 80
	snapSectionSize = 24
	snapSections    = 19

	// maxListDepth bounds list-value nesting when decoding, so a
	// corrupt self-referential span errors instead of recursing forever.
	maxListDepth = 64
)

// Section indexes. The order is part of the format.
const (
	secSymArena = iota
	secSymOff
	secNodeLabels
	secEdgeLabels
	secEdgeSrc
	secEdgeDst
	secOutOff
	secOutEdges
	secInOff
	secInEdges
	secNodePropOff
	secNodePropRecs
	secEdgePropOff
	secEdgePropRecs
	secPropArena
	secListRoots
	secListRecs
	secPropSetDir
	secPropSetWords
)

var secNames = [snapSections]string{
	"symArena", "symOff", "nodeLabels", "edgeLabels", "edgeSrc", "edgeDst",
	"outOff", "outEdges", "inOff", "inEdges", "nodePropOff", "nodePropRecs",
	"edgePropOff", "edgePropRecs", "propArena", "listRoots", "listRecs",
	"propSetDir", "propSetWords",
}

var secElem = [snapSections]uint32{
	1, 4, 4, 4, 8, 8, 4, 8, 4, 8, 4, propRecSize, 4, propRecSize, 1, 8, propRecSize, 4, 8,
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func align8(x int) int { return (x + 7) &^ 7 }

// readSnapshotFile is the mmap fallback: the whole file in one heap
// buffer, 8-aligned so the same column casts apply.
func readSnapshotFile(path string) (*snapMapping, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty file")
	}
	buf := make([]uint64, (len(raw)+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(raw))
	copy(data, raw)
	return &snapMapping{data: data, path: path}, nil
}

// viewSlice reinterprets a byte slice as a []T without copying. The
// caller guarantees 8-byte alignment and that len(b) is a multiple of
// the element size (the opener validates both).
func viewSlice[T any](b []byte) []T {
	var z T
	n := len(b) / int(unsafe.Sizeof(z))
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// bytesOf is the inverse view, for whole-slice section writes.
func bytesOf[T any](s []T) []byte {
	var z T
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(z)))
}

// piecesOf views each piece of a chunked column as raw bytes, for
// section writes.
func piecesOf[T any](pieces [][]T) [][]byte {
	out := make([][]byte, len(pieces))
	for i, p := range pieces {
		out[i] = bytesOf(p)
	}
	return out
}

// listFlattener serializes decoded list values into contiguous spans of
// element records; nested lists become spans of their own, referenced
// by (offset<<32 | count) payloads.
type listFlattener struct {
	arena []byte
	recs  []propRec
}

func (lf *listFlattener) flatten(v values.Value) (uint64, error) {
	n := v.Len()
	buf := make([]propRec, n)
	for i := 0; i < n; i++ {
		el := v.Elem(i)
		r := propRec{sym: -1, kind: uint8(el.Kind())}
		switch el.Kind() {
		case values.KindNull:
		case values.KindInt:
			r.a = uint64(el.AsInt())
		case values.KindFloat:
			r.a = math.Float64bits(el.AsFloat())
		case values.KindBoolean:
			if el.AsBool() {
				r.a = 1
			}
		case values.KindString, values.KindID, values.KindEnum:
			str := el.AsString()
			if len(lf.arena)+len(str) > math.MaxUint32 {
				return 0, fmt.Errorf("property string arena exceeds 4 GiB")
			}
			r.a = uint64(len(lf.arena))<<32 | uint64(uint32(len(str)))
			lf.arena = append(lf.arena, str...)
		case values.KindList:
			span, err := lf.flatten(el)
			if err != nil {
				return 0, err
			}
			r.a = span
		default:
			return 0, fmt.Errorf("cannot encode list element of kind %v", el.Kind())
		}
		buf[i] = r
	}
	off := len(lf.recs)
	if off+n > math.MaxUint32 {
		return 0, fmt.Errorf("list record table exceeds 2^32 entries")
	}
	lf.recs = append(lf.recs, buf...)
	return uint64(off)<<32 | uint64(uint32(n)), nil
}

// decodeListSpan rebuilds one list value from its record span, bounds-
// checking every access so a corrupt file errors instead of panicking.
func decodeListSpan(span uint64, recs []propRec, arena []byte, depth int) (values.Value, error) {
	if depth > maxListDepth {
		return values.Value{}, fmt.Errorf("list nesting exceeds %d", maxListDepth)
	}
	off, n := int(span>>32), int(uint32(span))
	if off < 0 || n < 0 || off+n > len(recs) {
		return values.Value{}, fmt.Errorf("list span [%d,%d) out of bounds (have %d records)", off, off+n, len(recs))
	}
	elems := make([]values.Value, n)
	for i := 0; i < n; i++ {
		r := &recs[off+i]
		switch values.Kind(r.kind) {
		case values.KindNull:
			elems[i] = values.Null
		case values.KindInt:
			elems[i] = values.Int(int64(r.a))
		case values.KindFloat:
			elems[i] = values.Float(math.Float64frombits(r.a))
		case values.KindBoolean:
			elems[i] = values.Boolean(r.a != 0)
		case values.KindString, values.KindID, values.KindEnum:
			so, sn := int(r.a>>32), int(uint32(r.a))
			if so < 0 || sn < 0 || so+sn > len(arena) {
				return values.Value{}, fmt.Errorf("list string [%d,%d) outside arena of %d bytes", so, so+sn, len(arena))
			}
			// Copy: eagerly decoded list values must not dangle into
			// the mapping if it is ever closed.
			str := string(arena[so : so+sn])
			switch values.Kind(r.kind) {
			case values.KindID:
				elems[i] = values.ID(str)
			case values.KindEnum:
				elems[i] = values.Enum(str)
			default:
				elems[i] = values.String(str)
			}
		case values.KindList:
			el, err := decodeListSpan(r.a, recs, arena, depth+1)
			if err != nil {
				return values.Value{}, err
			}
			elems[i] = el
		default:
			return values.Value{}, fmt.Errorf("list element has invalid kind %d", r.kind)
		}
	}
	return values.List(elems...), nil
}

// WriteSnapshot serializes a snapshot as a .pgsnap image. Columns are
// written chunk by chunk as raw bytes; row offsets are rebased to one
// flat array, and only property rows of heap snapshots need
// per-record encoding (their values hold pointers). A record-backed
// snapshot with an empty overflow arena round-trips as raw column
// dumps.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if strconv.IntSize != 64 {
		return fmt.Errorf("pgsnap: format requires a 64-bit platform")
	}
	if s.symNames == nil && (len(s.nodePropSet) > 0 || s.nodeProps.rows > 0 || s.nodeRecs.rows > 0 ||
		s.edgeProps.rows > 0 || s.edgeRecs.rows > 0) {
		return fmt.Errorf("pgsnap: snapshot carries no symbol names; rebuild it via Graph.Snapshot")
	}

	// Normalize property storage to single-arena record columns.
	var nodeRecs, edgeRecs [][]propRec
	var nodeOff, edgeOff []uint32
	var arena []byte
	var lists []values.Value
	if s.recBacked {
		nodeRecs, edgeRecs, arena, lists = s.nodeRecs.rowPieces(), s.edgeRecs.rowPieces(), s.propArena, s.propLists
		nodeOff, edgeOff = s.nodeRecs.flatOff(), s.edgeRecs.flatOff()
		if len(s.propOver) > 0 {
			shift := len(s.propArena)
			if shift+len(s.propOver) > math.MaxUint32 {
				return fmt.Errorf("pgsnap: merged string arena exceeds 4 GiB")
			}
			merged := make([]byte, 0, shift+len(s.propOver))
			merged = append(merged, s.propArena...)
			merged = append(merged, s.propOver...)
			arena = merged
			fix := func(pieces [][]propRec) [][]propRec {
				out := make([][]propRec, len(pieces))
				for i, recs := range pieces {
					out[i] = slices.Clone(recs)
					for j := range out[i] {
						if r := &out[i][j]; r.arena == 1 {
							r.arena = 0
							r.a += uint64(shift) << 32
						}
					}
				}
				return out
			}
			nodeRecs, edgeRecs = fix(nodeRecs), fix(edgeRecs)
		}
	} else {
		enc := recEncoder{arenaID: 0}
		encode := func(c *col[Prop]) ([][]propRec, error) {
			enc.recs = nil
			for _, props := range c.rowPieces() {
				if err := enc.addAll(props); err != nil {
					return nil, fmt.Errorf("pgsnap: %w", err)
				}
			}
			return [][]propRec{enc.recs}, nil
		}
		var err error
		if nodeRecs, err = encode(&s.nodeProps); err != nil {
			return err
		}
		if edgeRecs, err = encode(&s.edgeProps); err != nil {
			return err
		}
		nodeOff, edgeOff = s.nodeProps.flatOff(), s.edgeProps.flatOff()
		arena, lists = enc.arena, enc.lists
	}

	// Flatten list values (shares the string arena).
	lf := listFlattener{arena: arena}
	roots := make([]uint64, len(lists))
	for i := range lists {
		span, err := lf.flatten(lists[i])
		if err != nil {
			return fmt.Errorf("pgsnap: %w", err)
		}
		roots[i] = span
	}
	arena = lf.arena

	// Symbol table arena.
	symArenaLen := 0
	for _, name := range s.symNames {
		symArenaLen += len(name)
	}
	if symArenaLen > math.MaxUint32 {
		return fmt.Errorf("pgsnap: symbol arena exceeds 4 GiB")
	}
	symArena := make([]byte, 0, symArenaLen)
	symOff := make([]uint32, len(s.symNames)+1)
	for i, name := range s.symNames {
		symArena = append(symArena, name...)
		symOff[i+1] = uint32(len(symArena))
	}

	// Presence bitsets: a directory of 1-based set ordinals per sym
	// (0 = no set) plus the concatenated word blocks, each exactly the
	// node bound's words long.
	words := (s.NodeBound() + 63) / 64
	dir := make([]uint32, len(s.symNames))
	var setWords []uint64
	numSets := uint32(0)
	for sym := range s.nodePropSet {
		set := &s.nodePropSet[sym]
		if set.n == 0 || sym >= len(dir) {
			continue
		}
		numSets++
		dir[sym] = numSets
		setWords = set.appendFlat(setWords)
		if pad := words - set.n; pad > 0 {
			setWords = append(setWords, make([]uint64, pad)...)
		}
	}

	one := func(b []byte) [][]byte { return [][]byte{b} }
	secs := [snapSections][][]byte{
		secSymArena:     one(symArena),
		secSymOff:       one(bytesOf(symOff)),
		secNodeLabels:   piecesOf(s.nodeLabels.pieces()),
		secEdgeLabels:   piecesOf(s.edgeLabels.pieces()),
		secEdgeSrc:      piecesOf(s.edgeSrc.pieces()),
		secEdgeDst:      piecesOf(s.edgeDst.pieces()),
		secOutOff:       one(bytesOf(s.out.flatOff())),
		secOutEdges:     piecesOf(s.out.rowPieces()),
		secInOff:        one(bytesOf(s.in.flatOff())),
		secInEdges:      piecesOf(s.in.rowPieces()),
		secNodePropOff:  one(bytesOf(nodeOff)),
		secNodePropRecs: piecesOf(nodeRecs),
		secEdgePropOff:  one(bytesOf(edgeOff)),
		secEdgePropRecs: piecesOf(edgeRecs),
		secPropArena:    one(arena),
		secListRoots:    one(bytesOf(roots)),
		secListRecs:     one(bytesOf(lf.recs)),
		secPropSetDir:   one(bytesOf(dir)),
		secPropSetWords: one(bytesOf(setWords)),
	}

	// Section table: offsets, sizes, checksums.
	table := make([]byte, snapSections*snapSectionSize)
	off := align8(snapHeaderSize + len(table))
	for i, sec := range secs {
		size, crc := 0, uint32(0)
		for _, piece := range sec {
			size += len(piece)
			crc = crc32.Update(crc, castagnoli, piece)
		}
		ent := table[i*snapSectionSize:]
		binary.LittleEndian.PutUint64(ent[0:], uint64(off))
		binary.LittleEndian.PutUint64(ent[8:], uint64(size))
		binary.LittleEndian.PutUint32(ent[16:], crc)
		binary.LittleEndian.PutUint32(ent[20:], secElem[i])
		off += align8(size)
	}

	hdr := make([]byte, snapHeaderSize)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:], snapVersion)
	*(*uint32)(unsafe.Pointer(&hdr[12])) = snapBOM
	binary.LittleEndian.PutUint64(hdr[16:], s.epoch)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(s.NodeBound()))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(s.EdgeBound()))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(s.liveNodes))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(s.liveEdges))
	binary.LittleEndian.PutUint64(hdr[56:], uint64(len(s.symNames)))
	binary.LittleEndian.PutUint64(hdr[64:], uint64(len(roots)))
	binary.LittleEndian.PutUint32(hdr[72:], snapSections)
	crc := crc32.Checksum(hdr[:76], castagnoli)
	crc = crc32.Update(crc, castagnoli, table)
	binary.LittleEndian.PutUint32(hdr[76:], crc)

	bw := bufio.NewWriterSize(w, 1<<20)
	var pad [8]byte
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.Write(table); err != nil {
		return err
	}
	if p := align8(snapHeaderSize+len(table)) - (snapHeaderSize + len(table)); p > 0 {
		if _, err := bw.Write(pad[:p]); err != nil {
			return err
		}
	}
	for _, sec := range secs {
		size := 0
		for _, piece := range sec {
			if _, err := bw.Write(piece); err != nil {
				return err
			}
			size += len(piece)
		}
		if p := align8(size) - size; p > 0 {
			if _, err := bw.Write(pad[:p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// OpenOption configures OpenSnapshot.
type OpenOption func(*openOpts)

type openOpts struct{ verify bool }

// Verify makes OpenSnapshot checksum every section and deep-validate
// the structure (offset monotonicity, ID ranges, record payloads)
// before returning. Use it for files that crossed a trust boundary; it
// reads the whole file, trading the O(header) open for the guarantee
// that no later column access can observe corrupt data.
func Verify() OpenOption { return func(o *openOpts) { o.verify = true } }

// OpenSnapshot maps a .pgsnap file read-only and returns a Graph whose
// snapshot columns alias the mapping: the allocation count does not
// grow with the graph, open cost is O(header + symbol table) plus the
// columns' chunk directories (one entry per 2048 elements), and pages
// fault in lazily on first access. Like a streamed CSV graph, the result
// is its snapshot: validation, revalidation and queries read the mapped
// columns directly, and writes go to the graph's overlay and fold into
// new snapshots that share the clean chunks — the file is never written
// through.
//
// Close releases the mapping; see Graph.Close for the lifetime rules.
func OpenSnapshot(path string, opts ...OpenOption) (*Graph, error) {
	var o openOpts
	for _, opt := range opts {
		opt(&o)
	}
	m, err := mapSnapshotFile(path)
	if err != nil {
		return nil, fmt.Errorf("pgsnap: %s: %w", path, err)
	}
	s, syms, err := loadSnapshot(m.data, path, o.verify)
	if err != nil {
		m.close()
		return nil, err
	}
	s.mapping = m
	return newLoadedGraph(s, syms, m), nil
}

// loadSnapshot reconstructs a record-backed Snapshot over a .pgsnap
// image. It never panics: every decoded offset is validated before use,
// and (in verify mode) every section checksum and structural invariant
// is checked, so corruption yields a precise error.
func loadSnapshot(data []byte, path string, verify bool) (*Snapshot, symbols, error) {
	var none symbols
	fail := func(format string, args ...any) (*Snapshot, symbols, error) {
		return nil, none, fmt.Errorf("pgsnap: %s: %s", path, fmt.Sprintf(format, args...))
	}
	if strconv.IntSize != 64 {
		return fail("format requires a 64-bit platform")
	}
	if len(data) < snapHeaderSize {
		return fail("truncated: %d bytes, want at least the %d-byte header", len(data), snapHeaderSize)
	}
	if string(data[:8]) != snapMagic {
		return fail("bad magic %q: not a .pgsnap file", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapVersion {
		return fail("unsupported format version %d (this build reads version %d)", v, snapVersion)
	}
	if bom := *(*uint32)(unsafe.Pointer(&data[12])); bom != snapBOM {
		return fail("foreign byte order (mark %#08x): file was written on an incompatible platform", bom)
	}
	epoch := binary.LittleEndian.Uint64(data[16:])
	nodeBound := binary.LittleEndian.Uint64(data[24:])
	edgeBound := binary.LittleEndian.Uint64(data[32:])
	liveNodes := binary.LittleEndian.Uint64(data[40:])
	liveEdges := binary.LittleEndian.Uint64(data[48:])
	symCount := binary.LittleEndian.Uint64(data[56:])
	listCount := binary.LittleEndian.Uint64(data[64:])
	if sc := binary.LittleEndian.Uint32(data[72:]); sc != snapSections {
		return fail("section count %d, want %d", sc, snapSections)
	}
	tableEnd := snapHeaderSize + snapSections*snapSectionSize
	dataStart := align8(tableEnd)
	if len(data) < dataStart {
		return fail("truncated: %d bytes, want at least %d for header and section table", len(data), dataStart)
	}
	wantCRC := binary.LittleEndian.Uint32(data[76:])
	crc := crc32.Checksum(data[:76], castagnoli)
	crc = crc32.Update(crc, castagnoli, data[snapHeaderSize:tableEnd])
	if crc != wantCRC {
		return fail("header checksum mismatch: file %#08x, computed %#08x", wantCRC, crc)
	}
	const maxCount = uint64(math.MaxInt32) * 64 // generous sanity bound
	if nodeBound > maxCount || edgeBound > maxCount || symCount > maxCount || listCount > maxCount ||
		liveNodes > nodeBound || liveEdges > edgeBound {
		return fail("implausible header counts (nodes %d/%d, edges %d/%d, syms %d, lists %d)",
			liveNodes, nodeBound, liveEdges, edgeBound, symCount, listCount)
	}

	type section struct {
		off, size uint64
		crc       uint32
	}
	var secs [snapSections]section
	for i := 0; i < snapSections; i++ {
		ent := data[snapHeaderSize+i*snapSectionSize:]
		s := section{
			off:  binary.LittleEndian.Uint64(ent[0:]),
			size: binary.LittleEndian.Uint64(ent[8:]),
			crc:  binary.LittleEndian.Uint32(ent[16:]),
		}
		if elem := binary.LittleEndian.Uint32(ent[20:]); elem != secElem[i] {
			return fail("section %s: element size %d, want %d", secNames[i], elem, secElem[i])
		}
		if s.size > 0 {
			if s.off%8 != 0 {
				return fail("section %s: misaligned offset %d (sections are 8-byte aligned)", secNames[i], s.off)
			}
			if s.off < uint64(dataStart) || s.off > uint64(len(data)) || s.size > uint64(len(data))-s.off {
				return fail("section %s: range [%d,%d) out of bounds (file is %d bytes)",
					secNames[i], s.off, s.off+s.size, len(data))
			}
			if s.size%uint64(secElem[i]) != 0 {
				return fail("section %s: size %d is not a multiple of the %d-byte element",
					secNames[i], s.size, secElem[i])
			}
		}
		secs[i] = s
	}
	// Capacity-capped so no append through a section view can ever
	// reach the (read-only) bytes that follow it in the mapping. An
	// empty section's offset is unvalidated — never slice through it.
	raw := func(i int) []byte {
		if secs[i].size == 0 {
			return nil
		}
		return data[secs[i].off : secs[i].off+secs[i].size : secs[i].off+secs[i].size]
	}
	count := func(i int) uint64 { return secs[i].size / uint64(secElem[i]) }
	checkCRC := func(i int) error {
		if got := crc32.Checksum(raw(i), castagnoli); got != secs[i].crc {
			return fmt.Errorf("pgsnap: %s: section %s: checksum mismatch: file %#08x, computed %#08x",
				path, secNames[i], secs[i].crc, got)
		}
		return nil
	}

	// Header-implied element counts.
	wantCounts := [][2]uint64{
		{secSymOff, symCount + 1},
		{secNodeLabels, nodeBound}, {secEdgeLabels, edgeBound},
		{secEdgeSrc, edgeBound}, {secEdgeDst, edgeBound},
		{secOutOff, nodeBound + 1}, {secInOff, nodeBound + 1},
		{secNodePropOff, nodeBound + 1}, {secEdgePropOff, edgeBound + 1},
		{secListRoots, listCount},
		{secPropSetDir, symCount},
	}
	for _, wc := range wantCounts {
		if got := count(int(wc[0])); got != wc[1] {
			return fail("section %s: %d elements, header implies %d", secNames[wc[0]], got, wc[1])
		}
	}

	// Checksum what we decode eagerly; everything else only under Verify.
	eager := []int{secSymArena, secSymOff, secListRoots, secListRecs}
	if verify {
		eager = make([]int, snapSections)
		for i := range eager {
			eager[i] = i
		}
	}
	for _, i := range eager {
		if err := checkCRC(i); err != nil {
			return nil, none, err
		}
	}

	// Symbol table: always decoded (and so always validated) — names
	// become ordinary heap strings, O(symbols) work and allocation.
	symOff := viewSlice[uint32](raw(secSymOff))
	symArena := raw(secSymArena)
	names := make([]string, symCount)
	ids := make(map[string]Sym, symCount)
	if symOff[0] != 0 {
		return fail("section symOff: first offset %d, want 0", symOff[0])
	}
	for i := uint64(0); i < symCount; i++ {
		a, b := symOff[i], symOff[i+1]
		if b < a || uint64(b) > uint64(len(symArena)) {
			return fail("section symOff: offsets [%d,%d) invalid for a %d-byte symbol arena", a, b, len(symArena))
		}
		name := string(symArena[a:b])
		if _, dup := ids[name]; dup {
			return fail("symbol table: duplicate name %q", name)
		}
		names[i] = name
		ids[name] = Sym(i)
	}
	if symCount > 0 && uint64(symOff[symCount]) != uint64(len(symArena)) {
		return fail("section symOff: last offset %d, want arena size %d", symOff[symCount], len(symArena))
	}

	f := flatColumns{
		nodeLabels:  viewSlice[Sym](raw(secNodeLabels)),
		edgeLabels:  viewSlice[Sym](raw(secEdgeLabels)),
		edgeSrc:     viewSlice[NodeID](raw(secEdgeSrc)),
		edgeDst:     viewSlice[NodeID](raw(secEdgeDst)),
		outOff:      viewSlice[uint32](raw(secOutOff)),
		outEdges:    viewSlice[EdgeID](raw(secOutEdges)),
		inOff:       viewSlice[uint32](raw(secInOff)),
		inEdges:     viewSlice[EdgeID](raw(secInEdges)),
		nodePropOff: viewSlice[uint32](raw(secNodePropOff)),
		nodeRecs:    viewSlice[propRec](raw(secNodePropRecs)),
		edgePropOff: viewSlice[uint32](raw(secEdgePropOff)),
		edgeRecs:    viewSlice[propRec](raw(secEdgePropRecs)),
	}
	s := &Snapshot{
		idx:        newSnapIndexes(),
		epoch:      epoch,
		liveNodes:  int(liveNodes),
		liveEdges:  int(liveEdges),
		symNames:   names[:len(names):len(names)],
		recBacked:  true,
		nodeLabels: fixedCol(f.nodeLabels),
		edgeLabels: fixedCol(f.edgeLabels),
		edgeSrc:    fixedCol(f.edgeSrc),
		edgeDst:    fixedCol(f.edgeDst),
		out:        rowCol(f.outOff, f.outEdges),
		in:         rowCol(f.inOff, f.inEdges),
		nodeRecs:   rowCol(f.nodePropOff, f.nodeRecs),
		edgeRecs:   rowCol(f.edgePropOff, f.edgeRecs),
		propArena:  raw(secPropArena),
	}

	// List values: decoded eagerly (bounded by the header list count;
	// zero for the common list-free graph).
	roots := viewSlice[uint64](raw(secListRoots))
	listRecs := viewSlice[propRec](raw(secListRecs))
	if listCount > 0 {
		s.propLists = make([]values.Value, listCount)
		for i := range roots {
			v, err := decodeListSpan(roots[i], listRecs, s.propArena, 0)
			if err != nil {
				return fail("section listRecs: root %d: %v", i, err)
			}
			s.propLists[i] = v
		}
	}

	// Presence bitsets: O(symbols) chunk directories over the words blob.
	dir := viewSlice[uint32](raw(secPropSetDir))
	setWords := viewSlice[uint64](raw(secPropSetWords))
	words := (int(nodeBound) + 63) / 64
	numSets := 0
	if words > 0 {
		if len(setWords)%words != 0 {
			return fail("section propSetWords: %d words is not a multiple of the %d-word set size", len(setWords), words)
		}
		numSets = len(setWords) / words
	} else if len(setWords) != 0 {
		return fail("section propSetWords: %d words for an empty graph", len(setWords))
	}
	s.nodePropSet = make([]col[uint64], symCount)
	for sym, ord := range dir {
		if ord == 0 {
			continue
		}
		if int(ord) > numSets {
			return fail("section propSetDir: sym %d references set %d of %d", sym, ord, numSets)
		}
		s.nodePropSet[sym] = fixedCol(setWords[(int(ord)-1)*words : int(ord)*words])
	}

	if verify {
		if err := f.verify(s, path); err != nil {
			return nil, none, err
		}
	}
	return s, symbols{ids: ids, names: names}, nil
}

// flatColumns are a .pgsnap image's data sections as flat views, before
// the opener chunks them.
type flatColumns struct {
	nodeLabels, edgeLabels   []Sym
	edgeSrc, edgeDst         []NodeID
	outOff, inOff            []uint32
	outEdges, inEdges        []EdgeID
	nodePropOff, edgePropOff []uint32
	nodeRecs, edgeRecs       []propRec
}

// verify deep-checks the aliased columns of s, opened over f:
// everything a hot loop would otherwise index unchecked.
func (f *flatColumns) verify(s *Snapshot, path string) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("pgsnap: %s: structure: %s", path, fmt.Sprintf(format, args...))
	}
	nn, ne, nsym := len(f.nodeLabels), len(f.edgeLabels), len(s.symNames)
	liveN, liveE := 0, 0
	for v, ls := range f.nodeLabels {
		if ls != NoSym {
			if ls < 0 || int(ls) >= nsym {
				return fail("node %d: label sym %d out of range [0,%d)", v, ls, nsym)
			}
			liveN++
		}
	}
	for e, ls := range f.edgeLabels {
		if ls != NoSym {
			if ls < 0 || int(ls) >= nsym {
				return fail("edge %d: label sym %d out of range [0,%d)", e, ls, nsym)
			}
			liveE++
		}
	}
	if liveN != s.liveNodes || liveE != s.liveEdges {
		return fail("live counts: header says %d nodes/%d edges, columns hold %d/%d",
			s.liveNodes, s.liveEdges, liveN, liveE)
	}
	for e := 0; e < ne; e++ {
		if src, dst := f.edgeSrc[e], f.edgeDst[e]; src < 0 || int(src) >= nn || dst < 0 || int(dst) >= nn {
			return fail("edge %d: endpoints (%d,%d) outside node bound %d", e, src, dst, nn)
		}
	}
	checkOff := func(name string, off []uint32, n int) error {
		if off[0] != 0 {
			return fail("%s: first offset %d, want 0", name, off[0])
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return fail("%s: offsets decrease at %d (%d < %d)", name, i, off[i], off[i-1])
			}
		}
		if int(off[len(off)-1]) != n {
			return fail("%s: last offset %d, want %d", name, off[len(off)-1], n)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		off  []uint32
		n    int
	}{
		{"outOff", f.outOff, len(f.outEdges)},
		{"inOff", f.inOff, len(f.inEdges)},
		{"nodePropOff", f.nodePropOff, len(f.nodeRecs)},
		{"edgePropOff", f.edgePropOff, len(f.edgeRecs)},
	} {
		if err := checkOff(c.name, c.off, c.n); err != nil {
			return err
		}
	}
	for i, e := range f.outEdges {
		if e < 0 || int(e) >= ne {
			return fail("outEdges[%d]: edge %d outside edge bound %d", i, e, ne)
		}
	}
	for i, e := range f.inEdges {
		if e < 0 || int(e) >= ne {
			return fail("inEdges[%d]: edge %d outside edge bound %d", i, e, ne)
		}
	}
	checkRecs := func(name string, recs []propRec) error {
		for i := range recs {
			r := &recs[i]
			if r.sym < 0 || int(r.sym) >= nsym {
				return fail("%s[%d]: property sym %d out of range [0,%d)", name, i, r.sym, nsym)
			}
			if r.arena != 0 {
				return fail("%s[%d]: arena %d, want 0 (files are single-arena)", name, i, r.arena)
			}
			switch values.Kind(r.kind) {
			case values.KindNull, values.KindInt, values.KindFloat, values.KindBoolean:
			case values.KindString, values.KindID, values.KindEnum:
				so, sn := int(r.a>>32), int(uint32(r.a))
				if so+sn > len(s.propArena) {
					return fail("%s[%d]: string [%d,%d) outside arena of %d bytes", name, i, so, so+sn, len(s.propArena))
				}
			case values.KindList:
				if int(r.a) >= len(s.propLists) {
					return fail("%s[%d]: list index %d of %d", name, i, r.a, len(s.propLists))
				}
			default:
				return fail("%s[%d]: invalid value kind %d", name, i, r.kind)
			}
		}
		return nil
	}
	if err := checkRecs("nodePropRecs", f.nodeRecs); err != nil {
		return err
	}
	return checkRecs("edgePropRecs", f.edgeRecs)
}
