package pg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"pgschema/internal/values"
)

// The .pglog format: the write-ahead log that extends one .pgsnap with
// the deltas applied since it was written. A tenant is persisted as its
// last snapshot plus this log; an apply appends one framed record and
// fsyncs it, and compaction writes a new snapshot and starts a fresh
// log.
//
//	header (32 bytes, little-endian)
//	  0   magic "PGLOG\r\n\x00"
//	  8   format version (u32)
//	  12  header CRC of the snapshot this log extends (u32, the
//	      .pgsnap's offset 76, which covers its section CRCs)
//	  16  epoch of that snapshot (u64)
//	  24  log header CRC (u32, crc32c over bytes 0..24)
//	  28  zero (u32)
//	records, back to back
//	  0   payload length (u32, at least 1)
//	  4   payload CRC (u32, crc32c)
//	  8   payload
//
// A payload is a flags byte, the epoch before and the epoch after the
// record (uvarints), and the delta. Flag bit 0 marks a delta that was
// applied and then undone (a rolled-back apply): both halves live in one
// record, so a crash can never keep the apply without its undo. The
// after-epoch of such a record is the epoch after the undo.
//
// A delta is its nine groups in Delta field order, each a uvarint count
// followed by the entries. Node and edge references are zigzag varints
// (negative values are the same-delta NewNodeRef/NewEdgeRef references),
// strings are a uvarint length and the bytes, and a value is a kind byte
// and its payload: Int as a zigzag varint, Float as its 8 IEEE-754 bytes
// (so -0 and every NaN survive), Boolean as one byte, String, ID and Enum
// as a string, Null as nothing, and List as a uvarint count followed by
// the elements.

const (
	logMagic      = "PGLOG\r\n\x00"
	logVersion    = uint32(1)
	logHeaderSize = 32
	logFrameSize  = 8

	// maxLogRecord bounds a record's payload length. A longer length
	// field cannot come from a torn append, only from corruption.
	maxLogRecord = 1 << 30

	logUndone = 1 // flag bit: the delta was applied, then undone
)

// SnapshotID names one .pgsnap image: its epoch and its header CRC. A
// log header carries the ID of the snapshot it extends, so a log left
// beside a different snapshot is recognised as stale.
type SnapshotID struct {
	Epoch     uint64
	HeaderCRC uint32
}

// ReadSnapshotID reads the ID of the .pgsnap at path from its header,
// checking the magic and the header CRC.
func ReadSnapshotID(path string) (SnapshotID, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotID{}, err
	}
	defer f.Close()
	buf := make([]byte, snapHeaderSize+snapSections*snapSectionSize)
	if _, err := io.ReadFull(f, buf); err != nil {
		return SnapshotID{}, fmt.Errorf("pgsnap: %s: reading header: %w", path, err)
	}
	id, err := snapshotIDOf(buf)
	if err != nil {
		return SnapshotID{}, fmt.Errorf("pgsnap: %s: %w", path, err)
	}
	return id, nil
}

// snapshotIDOf reads the ID from the first bytes of a .pgsnap image.
func snapshotIDOf(data []byte) (SnapshotID, error) {
	tableEnd := snapHeaderSize + snapSections*snapSectionSize
	if len(data) < tableEnd || string(data[:8]) != snapMagic {
		return SnapshotID{}, fmt.Errorf("not a .pgsnap header")
	}
	want := binary.LittleEndian.Uint32(data[76:])
	crc := crc32.Checksum(data[:76], castagnoli)
	if crc32.Update(crc, castagnoli, data[snapHeaderSize:tableEnd]) != want {
		return SnapshotID{}, fmt.Errorf("header checksum mismatch")
	}
	return SnapshotID{Epoch: binary.LittleEndian.Uint64(data[16:]), HeaderCRC: want}, nil
}

func logHeader(id SnapshotID) []byte {
	h := make([]byte, logHeaderSize)
	copy(h, logMagic)
	binary.LittleEndian.PutUint32(h[8:], logVersion)
	binary.LittleEndian.PutUint32(h[12:], id.HeaderCRC)
	binary.LittleEndian.PutUint64(h[16:], id.Epoch)
	binary.LittleEndian.PutUint32(h[24:], crc32.Checksum(h[:24], castagnoli))
	return h
}

func parseLogHeader(data []byte) (SnapshotID, error) {
	if len(data) < logHeaderSize {
		return SnapshotID{}, fmt.Errorf("truncated header: %d bytes, want %d", len(data), logHeaderSize)
	}
	if string(data[:8]) != logMagic {
		return SnapshotID{}, fmt.Errorf("bad magic %q: not a .pglog file", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != logVersion {
		return SnapshotID{}, fmt.Errorf("unsupported format version %d (this build reads version %d)", v, logVersion)
	}
	if want, got := binary.LittleEndian.Uint32(data[24:]), crc32.Checksum(data[:24], castagnoli); want != got {
		return SnapshotID{}, fmt.Errorf("header checksum mismatch: file %#08x, computed %#08x", want, got)
	}
	return SnapshotID{
		Epoch:     binary.LittleEndian.Uint64(data[16:]),
		HeaderCRC: binary.LittleEndian.Uint32(data[12:]),
	}, nil
}

// LogRecord is one entry of a write-ahead log: a delta, the graph epoch
// it was applied at and the epoch it left behind. Undone marks a delta
// that was applied and then undone; After is then the epoch after the
// undo.
type LogRecord struct {
	Before, After uint64
	Undone        bool
	Delta         Delta
}

// appendLogRecord appends rec to buf as one framed record: length,
// CRC32C and payload.
func appendLogRecord(buf []byte, rec *LogRecord) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame, filled in below
	var flags byte
	if rec.Undone {
		flags |= logUndone
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, rec.Before)
	buf = binary.AppendUvarint(buf, rec.After)
	buf = appendDelta(buf, &rec.Delta)
	payload := buf[start+logFrameSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

func appendDelta(b []byte, d *Delta) []byte {
	b = binary.AppendUvarint(b, uint64(len(d.AddNodes)))
	for _, n := range d.AddNodes {
		b = appendLogString(b, n.Label)
		b = appendPropEntries(b, n.Props)
	}
	b = binary.AppendUvarint(b, uint64(len(d.AddEdges)))
	for _, e := range d.AddEdges {
		b = binary.AppendVarint(b, int64(e.Src))
		b = binary.AppendVarint(b, int64(e.Dst))
		b = appendLogString(b, e.Label)
		b = appendPropEntries(b, e.Props)
	}
	b = binary.AppendUvarint(b, uint64(len(d.RelabelNodes)))
	for _, r := range d.RelabelNodes {
		b = binary.AppendVarint(b, int64(r.Node))
		b = appendLogString(b, r.Label)
	}
	b = binary.AppendUvarint(b, uint64(len(d.SetNodeProps)))
	for _, p := range d.SetNodeProps {
		b = binary.AppendVarint(b, int64(p.Node))
		b = appendLogString(b, p.Name)
		b = appendLogValue(b, p.Value)
	}
	b = binary.AppendUvarint(b, uint64(len(d.DelNodeProps)))
	for _, p := range d.DelNodeProps {
		b = binary.AppendVarint(b, int64(p.Node))
		b = appendLogString(b, p.Name)
	}
	b = binary.AppendUvarint(b, uint64(len(d.SetEdgeProps)))
	for _, p := range d.SetEdgeProps {
		b = binary.AppendVarint(b, int64(p.Edge))
		b = appendLogString(b, p.Name)
		b = appendLogValue(b, p.Value)
	}
	b = binary.AppendUvarint(b, uint64(len(d.DelEdgeProps)))
	for _, p := range d.DelEdgeProps {
		b = binary.AppendVarint(b, int64(p.Edge))
		b = appendLogString(b, p.Name)
	}
	b = binary.AppendUvarint(b, uint64(len(d.RemoveEdges)))
	for _, e := range d.RemoveEdges {
		b = binary.AppendVarint(b, int64(e))
	}
	b = binary.AppendUvarint(b, uint64(len(d.RemoveNodes)))
	for _, n := range d.RemoveNodes {
		b = binary.AppendVarint(b, int64(n))
	}
	return b
}

func appendPropEntries(b []byte, props []PropEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(props)))
	for _, p := range props {
		b = appendLogString(b, p.Name)
		b = appendLogValue(b, p.Value)
	}
	return b
}

func appendLogString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendLogValue(b []byte, v values.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case values.KindInt:
		b = binary.AppendVarint(b, v.AsInt())
	case values.KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
	case values.KindBoolean:
		if v.AsBool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case values.KindString, values.KindID, values.KindEnum:
		b = appendLogString(b, v.AsString())
	case values.KindList:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = appendLogValue(b, v.Elem(i))
		}
	}
	return b
}

// logDecoder reads a record payload. The first malformed field sets err
// and every later read returns zero values, so callers check err once.
type logDecoder struct {
	b   []byte
	err error
}

func (d *logDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *logDecoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("payload ends early")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *logDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("malformed uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *logDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("malformed varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// count reads a group or list length. Every entry takes at least one
// byte, so a count beyond the bytes left is corrupt — checking it first
// keeps a hostile count from sizing a huge allocation.
func (d *logDecoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *logDecoder) id() int {
	x := d.varint()
	if x != int64(int(x)) {
		d.fail("element id %d out of range", x)
		return 0
	}
	return int(x)
}

func (d *logDecoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("string of %d bytes exceeds the %d bytes left", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *logDecoder) value(depth int) values.Value {
	switch k := values.Kind(d.u8()); k {
	case values.KindNull:
		return values.Null
	case values.KindInt:
		return values.Int(d.varint())
	case values.KindFloat:
		if len(d.b) < 8 {
			d.fail("float payload ends early")
			return values.Null
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		d.b = d.b[8:]
		return values.Float(f)
	case values.KindBoolean:
		switch d.u8() {
		case 0:
			return values.Boolean(false)
		case 1:
			return values.Boolean(true)
		}
		d.fail("malformed boolean")
	case values.KindString:
		return values.String(d.str())
	case values.KindID:
		return values.ID(d.str())
	case values.KindEnum:
		return values.Enum(d.str())
	case values.KindList:
		if depth >= maxListDepth {
			d.fail("list values nested deeper than %d", maxListDepth)
			return values.Null
		}
		elems := make([]values.Value, d.count())
		for i := range elems {
			elems[i] = d.value(depth + 1)
		}
		return values.List(elems...)
	default:
		d.fail("unknown value kind %d", int(k))
	}
	return values.Null
}

func (d *logDecoder) props() []PropEntry {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]PropEntry, n)
	for i := range out {
		out[i] = PropEntry{Name: d.str(), Value: d.value(0)}
	}
	return out
}

func (d *logDecoder) delta() Delta {
	var x Delta
	if n := d.count(); n > 0 {
		x.AddNodes = make([]AddNodeSpec, n)
		for i := range x.AddNodes {
			x.AddNodes[i] = AddNodeSpec{Label: d.str(), Props: d.props()}
		}
	}
	if n := d.count(); n > 0 {
		x.AddEdges = make([]AddEdgeSpec, n)
		for i := range x.AddEdges {
			src, dst := NodeID(d.id()), NodeID(d.id())
			x.AddEdges[i] = AddEdgeSpec{Src: src, Dst: dst, Label: d.str(), Props: d.props()}
		}
	}
	if n := d.count(); n > 0 {
		x.RelabelNodes = make([]RelabelSpec, n)
		for i := range x.RelabelNodes {
			x.RelabelNodes[i] = RelabelSpec{Node: NodeID(d.id()), Label: d.str()}
		}
	}
	if n := d.count(); n > 0 {
		x.SetNodeProps = make([]NodePropSpec, n)
		for i := range x.SetNodeProps {
			x.SetNodeProps[i] = NodePropSpec{Node: NodeID(d.id()), Name: d.str(), Value: d.value(0)}
		}
	}
	if n := d.count(); n > 0 {
		x.DelNodeProps = make([]NodePropDelSpec, n)
		for i := range x.DelNodeProps {
			x.DelNodeProps[i] = NodePropDelSpec{Node: NodeID(d.id()), Name: d.str()}
		}
	}
	if n := d.count(); n > 0 {
		x.SetEdgeProps = make([]EdgePropSpec, n)
		for i := range x.SetEdgeProps {
			x.SetEdgeProps[i] = EdgePropSpec{Edge: EdgeID(d.id()), Name: d.str(), Value: d.value(0)}
		}
	}
	if n := d.count(); n > 0 {
		x.DelEdgeProps = make([]EdgePropDelSpec, n)
		for i := range x.DelEdgeProps {
			x.DelEdgeProps[i] = EdgePropDelSpec{Edge: EdgeID(d.id()), Name: d.str()}
		}
	}
	if n := d.count(); n > 0 {
		x.RemoveEdges = make([]EdgeID, n)
		for i := range x.RemoveEdges {
			x.RemoveEdges[i] = EdgeID(d.id())
		}
	}
	if n := d.count(); n > 0 {
		x.RemoveNodes = make([]NodeID, n)
		for i := range x.RemoveNodes {
			x.RemoveNodes[i] = NodeID(d.id())
		}
	}
	return x
}

// decodeLogPayload decodes one record payload; every byte must be
// consumed.
func decodeLogPayload(p []byte) (LogRecord, error) {
	d := logDecoder{b: p}
	flags := d.u8()
	rec := LogRecord{Undone: flags&logUndone != 0, Before: d.uvarint(), After: d.uvarint()}
	if d.err == nil && flags&^logUndone != 0 {
		d.fail("unknown flags %#02x", flags)
	}
	rec.Delta = d.delta()
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d bytes after the delta", len(d.b))
	}
	return rec, d.err
}

// errTornRecord marks a record that runs past the end of the log: the
// tail of an append that never completed.
var errTornRecord = errors.New("record runs past the end of the log")

// parseLogRecord reads the framed record at off. end is where the
// record ends, or -1 when its frame cannot say (a record running past
// the end of the data).
func parseLogRecord(data []byte, off int) (rec LogRecord, end int, err error) {
	if len(data)-off < logFrameSize {
		return rec, -1, errTornRecord
	}
	n := binary.LittleEndian.Uint32(data[off:])
	if n > maxLogRecord {
		return rec, -1, fmt.Errorf("implausible record length %d", n)
	}
	if uint64(len(data)-off-logFrameSize) < uint64(n) {
		return rec, -1, errTornRecord
	}
	end = off + logFrameSize + int(n)
	if n == 0 {
		return rec, end, fmt.Errorf("empty record")
	}
	payload := data[off+logFrameSize : end]
	if want, got := binary.LittleEndian.Uint32(data[off+4:]), crc32.Checksum(payload, castagnoli); want != got {
		return rec, end, fmt.Errorf("checksum mismatch: file %#08x, computed %#08x", want, got)
	}
	rec, err = decodeLogPayload(payload)
	return rec, end, err
}

// ReplayInfo reports what ReplayLog found beside the snapshot.
type ReplayInfo struct {
	// Snapshot is the ID of the snapshot the graph was opened from.
	Snapshot SnapshotID
	// Records is the number of log records folded into the graph.
	Records int
	// Stale reports a log bound to another snapshot, which was ignored.
	Stale bool
	// LogSize is the length of the log's valid prefix: its header and
	// every whole record (0 when there is no log, or it is stale).
	// Appends continue from there; any bytes after it are an append a
	// crash cut short, never acknowledged, and dropped.
	LogSize int64
}

// ReplayLog opens the snapshot at snapPath and folds the write-ahead
// log at logPath into it. A missing log, or a log whose header names a
// different snapshot (left by a crash between a compaction's new
// snapshot and its fresh log, or by a replaced tenant), leaves the
// snapshot as it is. A final record that runs past the end of the log
// or fails its checksum is an append that never completed and is cut
// off; a bad record followed by a valid one is corruption and an error,
// as is a record whose before-epoch is not the epoch replay has
// reached.
//
// Records are applied to the graph's store without patching its
// snapshot; one patch of the opened snapshot at the end covers them
// all, so replay costs one pass over the columns however many records
// there are.
func ReplayLog(snapPath, logPath string) (*Graph, ReplayInfo, error) {
	var info ReplayInfo
	g, err := OpenSnapshot(snapPath)
	if err != nil {
		return nil, info, err
	}
	if info.Snapshot, err = snapshotIDOf(g.mapping.data); err != nil {
		g.Close()
		return nil, info, fmt.Errorf("pgsnap: %s: %w", snapPath, err)
	}
	data, err := os.ReadFile(logPath)
	if errors.Is(err, os.ErrNotExist) {
		return g, info, nil
	}
	if err == nil {
		err = g.replay(data, &info)
	}
	if err != nil {
		g.Close()
		return nil, info, fmt.Errorf("pglog: %s: %w", logPath, err)
	}
	return g, info, nil
}

// replay folds a log image into a graph just opened from the snapshot
// named info.Snapshot.
func (g *Graph) replay(data []byte, info *ReplayInfo) error {
	id, err := parseLogHeader(data)
	if err != nil {
		return err
	}
	if id != info.Snapshot {
		info.Stale = true
		return nil
	}
	base := g.snap.Load()
	changes := newChangeSet()
	off := logHeaderSize
	for off < len(data) {
		rec, end, err := parseLogRecord(data, off)
		if err != nil {
			if end < 0 && err != errTornRecord {
				return fmt.Errorf("record %d at offset %d: %v", info.Records, off, err)
			}
			if end >= 0 && end < len(data) {
				if _, _, next := parseLogRecord(data, end); next == nil {
					return fmt.Errorf("record %d at offset %d: %v, and a valid record follows it", info.Records, off, err)
				}
			}
			break
		}
		if rec.Before != g.epoch {
			return fmt.Errorf("record %d at offset %d: written at epoch %d, but replay has reached epoch %d",
				info.Records, off, rec.Before, g.epoch)
		}
		u, st, err := g.apply(rec.Delta) // no per-record patch; see below
		if err != nil {
			return fmt.Errorf("record %d at offset %d: %v", info.Records, off, err)
		}
		changes.merge(&st.changeSet)
		if rec.Undone {
			if err := u.Undo(); err != nil {
				return fmt.Errorf("record %d at offset %d: %v", info.Records, off, err)
			}
		}
		if g.epoch != rec.After {
			return fmt.Errorf("record %d at offset %d: replay reached epoch %d, the record says %d",
				info.Records, off, g.epoch, rec.After)
		}
		info.Records++
		off = end
	}
	info.LogSize = int64(off)
	if info.Records > 0 {
		// One patch of the opened snapshot covers every record: its
		// clean rows are still the graph's.
		if s := g.patchSnapshot(base, changes.patchPlan(g)); s != nil {
			g.snap.Store(s)
		}
	}
	return nil
}

// LogFile is what a Log appends through: the log's *os.File, or a
// wrapper around it that injects faults in tests.
type LogFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Log is a write-ahead log open for appending. It is not safe for
// concurrent use; the server appends under the tenant's writer lock.
type Log struct {
	f    LogFile
	size int64
	buf  []byte
}

// CreateLog atomically replaces the log at path with an empty log bound
// to the snapshot id — header to a temp file, fsync, rename, directory
// fsync — and returns it open for appending.
func CreateLog(path string, id SnapshotID) (*Log, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Log, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if _, err := tmp.Write(logHeader(id)); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail(err)
	}
	if err := syncDir(dir); err != nil {
		tmp.Close()
		return nil, err
	}
	return &Log{f: tmp, size: logHeaderSize}, nil
}

// OpenLog opens the log at path for appending after its first size
// bytes — the valid prefix ReplayLog reported — cutting off a torn tail
// first, so the next record never lands behind garbage.
func OpenLog(path string, size int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && st.Size() != size {
		if err = f.Truncate(size); err == nil {
			err = f.Sync()
		}
	}
	if err == nil {
		_, err = f.Seek(size, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, size: size}, nil
}

// WrapFile routes the log's writes and syncs through wrap(file).
func (l *Log) WrapFile(wrap func(LogFile) LogFile) { l.f = wrap(l.f) }

// Size is the log's length in bytes: header plus appended records.
func (l *Log) Size() int64 { return l.size }

// Append writes rec as one framed record in a single write and fsyncs
// it; when Append returns nil the record is durable. After an error the
// log's tail is unknown (a partial record may be on disk): the caller
// must stop appending to it and start a fresh log instead.
func (l *Log) Append(rec *LogRecord) error {
	l.buf = appendLogRecord(l.buf[:0], rec)
	n, err := l.f.Write(l.buf)
	if err == nil && n < len(l.buf) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = l.f.Sync()
	}
	if cap(l.buf) > 1<<20 {
		l.buf = nil // do not pin one large delta's buffer
	}
	if err != nil {
		return fmt.Errorf("pglog: append: %w", err)
	}
	l.size += int64(n)
	return nil
}

// Close closes the log's file.
func (l *Log) Close() error { return l.f.Close() }
