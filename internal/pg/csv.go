package pg

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pgschema/internal/values"
)

// Ingestion pipeline tuning: rows are read in batches so the parse
// workers amortize channel traffic, and the reader buffer is large
// enough that a million-row file costs a handful of syscalls per MiB.
const (
	csvBatchRows  = 512
	csvReaderSize = 1 << 16
)

// propCols is the per-file property-column plan: which columns carry
// properties, their header names and pre-interned syms, and the column
// order that yields name-sorted property rows.
type propCols struct {
	names []string // header name by column index
	syms  []Sym    // interned sym by column index
	order []int    // property column indexes, stably sorted by name
}

// newPropCols interns every property column name once (batch interning:
// per-cell loads never touch the symbol table) and precomputes the
// name-sorted column order so rows come out ready for
// setNodePropsSorted.
func newPropCols(syms *symbols, header []string, skip int) propCols {
	c := propCols{
		names: header,
		syms:  make([]Sym, len(header)),
		order: make([]int, 0, len(header)-skip),
	}
	for i := skip; i < len(header); i++ {
		c.syms[i] = syms.intern(header[i])
		c.order = append(c.order, i)
	}
	sort.SliceStable(c.order, func(a, b int) bool {
		return header[c.order[a]] < header[c.order[b]]
	})
	return c
}

// parseRowInto is parseRow appending into a shared flat buffer: the
// row's props land in dst[rowStart:]. The streaming builder batches many
// rows into one buffer so per-row slices never allocate.
func (c *propCols) parseRowInto(dst []Prop, rec []string, rowStart int) []Prop {
	for _, i := range c.order {
		if i >= len(rec) || rec[i] == "" {
			continue
		}
		p := Prop{Sym: c.syms[i], Name: c.names[i], Value: SniffValue(rec[i])}
		if n := len(dst); n > rowStart && dst[n-1].Name == p.Name {
			dst[n-1] = p
		} else {
			dst = append(dst, p)
		}
	}
	return dst
}

// rawBatch is a sequence-numbered slice of records; lines[i] is the
// physical line rows[i] starts on (header = line 1), so diagnostics stay
// accurate when a quoted field spans multiple lines.
type rawBatch struct {
	seq   int
	lines []int
	rows  [][]string
	// consumed is the csv reader's input offset after this batch; the
	// streaming builder extrapolates total row counts from it.
	consumed int64
}

// seqBatch is a parsed batch tagged with its sequence number so the
// pipeline builder can re-order worker output back into record order.
type seqBatch interface{ seqNo() int }

// openCSV wraps a stream in a buffered, record-reusing csv.Reader and
// returns its header (copied: ReuseRecord recycles the slice). A UTF-8
// BOM on the first header cell is stripped, so BOM-prefixed exports
// don't intern a mangled BOM-prefixed column name.
func openCSV(r io.Reader) (*csv.Reader, []string, error) {
	cr := csv.NewReader(bufio.NewReaderSize(r, csvReaderSize))
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, nil, err
	}
	hdr := append([]string(nil), header...)
	hdr[0] = strings.TrimPrefix(hdr[0], "\uFEFF")
	return cr, hdr, nil
}

// csvWorkersOverride forces the parse fan-out when > 0. It is a test
// hook: 1 pins the inline path, 2+ pins the pipelined path regardless
// of GOMAXPROCS.
var csvWorkersOverride int

// csvWorkers is the parse fan-out per file. One worker would serialize
// value sniffing behind the reader; more than a few just contend on the
// batch channel for typical property counts.
func csvWorkers() int {
	if csvWorkersOverride > 0 {
		return csvWorkersOverride
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// batchSource reads sequence-numbered record batches off a csv.Reader,
// tagging every record with the physical line it starts on (via
// FieldPos, so records after a multi-line quoted field keep accurate
// line attribution). A read failure is recorded in fail and ends the
// stream after the rows read so far.
type batchSource struct {
	cr       *csv.Reader
	seq      int
	nextLine int // fallback attribution for errors csv can't place
	readErr  func(line int, err error) error
	fail     error
}

func newBatchSource(cr *csv.Reader, readErr func(line int, err error) error) *batchSource {
	return &batchSource{cr: cr, nextLine: 2, readErr: readErr}
}

// next returns the next batch and whether the stream is done. The last
// batch may be empty.
func (src *batchSource) next() (rawBatch, bool) {
	b := rawBatch{
		seq:   src.seq,
		lines: make([]int, 0, csvBatchRows),
		rows:  make([][]string, 0, csvBatchRows),
	}
	for len(b.rows) < csvBatchRows {
		rec, err := src.cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			src.fail = src.readErr(csvErrLine(err, src.nextLine), err)
			break
		}
		line, _ := src.cr.FieldPos(0)
		b.rows = append(b.rows, append([]string(nil), rec...))
		b.lines = append(b.lines, line)
		src.nextLine = line + 1
	}
	src.seq++
	b.consumed = src.cr.InputOffset()
	return b, src.fail != nil || len(b.rows) < csvBatchRows
}

// csvErrLine extracts the physical line a csv read error starts on,
// falling back to the line after the previously read record.
func csvErrLine(err error, fallback int) int {
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		return pe.StartLine
	}
	return fallback
}

// readCSVRecords is the shared reader/parser/builder pipeline. parse
// turns one raw batch into a parsed batch on a worker goroutine; apply
// installs one parsed batch on the caller's goroutine, always in record
// order. readErr formats a mid-file csv error with its physical line.
func readCSVRecords(
	cr *csv.Reader,
	parse func(b rawBatch) seqBatch,
	apply func(b seqBatch) error,
	readErr func(line int, err error) error,
) error {
	workers := csvWorkers()
	if workers == 1 {
		// Single-core: the pipeline's channel hops are pure overhead, so
		// read, parse, and apply inline with the same batching.
		src := newBatchSource(cr, readErr)
		for {
			b, done := src.next()
			if len(b.rows) > 0 {
				if err := apply(parse(b)); err != nil {
					return err
				}
			}
			if done {
				return src.fail
			}
		}
	}
	rawCh := make(chan rawBatch, workers)
	parsedCh := make(chan seqBatch, workers)
	doneCh := make(chan struct{})
	var closeDone sync.Once
	cancel := func() { closeDone.Do(func() { close(doneCh) }) }
	defer cancel()

	// Reader: batch records, copying each slice (ReuseRecord recycles
	// it) but keeping the freshly allocated strings.
	src := newBatchSource(cr, readErr)
	go func() {
		defer close(rawCh)
		for {
			b, done := src.next()
			if len(b.rows) > 0 {
				select {
				case rawCh <- b:
				case <-doneCh:
					return
				}
			}
			if done {
				return
			}
		}
	}()

	// Parse workers.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range rawCh {
				select {
				case parsedCh <- parse(b):
				case <-doneCh:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(parsedCh)
	}()

	// Builder: reorder by sequence number and apply. Out-of-order
	// batches are bounded by the worker count plus channel capacity.
	pending := make(map[int]seqBatch)
	next := 0
	for pb := range parsedCh {
		pending[pb.seqNo()] = pb
		for {
			b, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if err := apply(b); err != nil {
				return err
			}
		}
	}
	// src.fail is safe to read here: the reader goroutine wrote it
	// before closing rawCh, which happens before parsedCh closes.
	return src.fail
}

// checkNodeHeader validates the fixed prefix of a node CSV header; an
// EOF from openCSV means the file is empty (not even a header).
func checkNodeHeader(header []string, err error) error {
	if err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("pg: node CSV is empty: want an id,label,... header")
		}
		return fmt.Errorf("pg: reading node CSV header: %w", err)
	}
	if len(header) < 2 || header[0] != "id" || header[1] != "label" {
		return fmt.Errorf("pg: node CSV header must start with id,label")
	}
	return nil
}

// checkNodeRecord validates one node record's field count against the
// header. Records may omit trailing property columns (absent
// properties), but must not carry fields the header has no name for.
func checkNodeRecord(rec []string, ncols, line int) error {
	if len(rec) < 2 {
		return fmt.Errorf(
			"pg: node CSV line %d: record has %d fields, need at least id,label",
			line, len(rec))
	}
	if len(rec) > ncols {
		return fmt.Errorf(
			"pg: node CSV line %d: record has %d fields, but the header has only %d columns",
			line, len(rec), ncols)
	}
	return nil
}

func nodeReadErr(line int, err error) error {
	return fmt.Errorf("pg: node CSV line %d: %w", line, err)
}

// checkEdgeHeader validates the fixed prefix of an edge CSV header.
func checkEdgeHeader(header []string, err error) error {
	if err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("pg: edge CSV is empty: want a source,target,label,... header")
		}
		return fmt.Errorf("pg: reading edge CSV header: %w", err)
	}
	if len(header) < 3 || header[0] != "source" || header[1] != "target" || header[2] != "label" {
		return fmt.Errorf("pg: edge CSV header must start with source,target,label")
	}
	return nil
}

// checkEdgeRecord validates one edge record's field count against the
// header, as checkNodeRecord does for nodes.
func checkEdgeRecord(rec []string, ncols, line int) error {
	if len(rec) < 3 {
		return fmt.Errorf(
			"pg: edge CSV line %d: record has %d fields, need at least source,target,label",
			line, len(rec))
	}
	if len(rec) > ncols {
		return fmt.Errorf(
			"pg: edge CSV line %d: record has %d fields, but the header has only %d columns",
			line, len(rec), ncols)
	}
	return nil
}

func edgeReadErr(line int, err error) error {
	return fmt.Errorf("pg: edge CSV line %d: %w", line, err)
}

// SniffValue types a CSV cell: int, float, bool, "[a,b]" list (elements
// sniffed recursively), quoted string, or plain string.
func SniffValue(cell string) values.Value {
	s := strings.TrimSpace(cell)
	switch s {
	case "true":
		return values.Boolean(true)
	case "false":
		return values.Boolean(false)
	}
	if len(s) > 0 && maybeNumeric(s[0]) {
		// Failed strconv attempts allocate a *NumError apiece, and on a
		// property-heavy load nearly every cell is a plain string — so
		// only strings that could possibly be numbers reach strconv,
		// and integer-shaped ones skip the ParseInt-fails-on-floats
		// detour entirely.
		if integerShaped(s) {
			if i, err := strconv.ParseInt(s, 10, 64); err == nil {
				return values.Int(i)
			}
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return values.Float(f)
		}
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		if uq, err := strconv.Unquote(s); err == nil {
			return values.String(uq)
		}
	}
	if len(s) >= 2 && s[0] == '[' && s[len(s)-1] == ']' {
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return values.List()
		}
		parts := splitTopLevel(inner)
		elems := make([]values.Value, len(parts))
		for i, p := range parts {
			elems[i] = SniffValue(p)
		}
		return values.List(elems...)
	}
	return values.String(s)
}

// maybeNumeric reports whether a cell starting with c could parse as an
// int or float — digits, sign, decimal point, or the leading letter of
// ParseFloat's NaN/Inf spellings.
func maybeNumeric(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' ||
		c == 'n' || c == 'N' || c == 'i' || c == 'I'
}

// integerShaped reports whether s is an optional sign followed by one or
// more digits — exactly the strings base-10 ParseInt can accept (modulo
// range), so anything else skips straight to ParseFloat.
func integerShaped(s string) bool {
	if s[0] == '-' || s[0] == '+' {
		s = s[1:]
	}
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// splitTopLevel splits on commas that are not inside quotes or brackets.
func splitTopLevel(s string) []string {
	var parts []string
	depth, start := 0, 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' && (i == 0 || s[i-1] != '\\'):
			inQuote = !inQuote
		case inQuote:
		case c == '[':
			depth++
		case c == ']':
			depth--
		case c == ',' && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

// WriteCSV writes the graph in the two-file CSV layout ReadCSVStream accepts:
// node and edge property columns are the union of property names present,
// in sorted order; absent properties are empty cells.
func (g *Graph) WriteCSV(nodes, edges io.Writer) error {
	nodeCols := map[string]bool{}
	for _, id := range g.Nodes() {
		for _, name := range g.NodePropNames(id) {
			nodeCols[name] = true
		}
	}
	edgeCols := map[string]bool{}
	for _, id := range g.Edges() {
		for _, name := range g.EdgePropNames(id) {
			edgeCols[name] = true
		}
	}
	nCols := sortedKeys(nodeCols)
	eCols := sortedKeys(edgeCols)

	nw := csv.NewWriter(nodes)
	if err := nw.Write(append([]string{"id", "label"}, nCols...)); err != nil {
		return err
	}
	name := make(map[NodeID]string, g.NumNodes())
	for _, id := range g.Nodes() {
		nm := fmt.Sprintf("n%d", id)
		name[id] = nm
		rec := []string{nm, g.NodeLabel(id)}
		for _, col := range nCols {
			v, ok := g.NodeProp(id, col)
			rec = append(rec, cellValue(v, ok))
		}
		if err := nw.Write(rec); err != nil {
			return err
		}
	}
	nw.Flush()
	if err := nw.Error(); err != nil {
		return err
	}

	ew := csv.NewWriter(edges)
	if err := ew.Write(append([]string{"source", "target", "label"}, eCols...)); err != nil {
		return err
	}
	for _, id := range g.Edges() {
		src, dst := g.Endpoints(id)
		rec := []string{name[src], name[dst], g.EdgeLabel(id)}
		for _, col := range eCols {
			v, ok := g.EdgeProp(id, col)
			rec = append(rec, cellValue(v, ok))
		}
		if err := ew.Write(rec); err != nil {
			return err
		}
	}
	ew.Flush()
	return ew.Error()
}

// cellValue renders a property value in a form SniffValue decodes back to
// an equal value; absent properties become the empty cell.
func cellValue(v values.Value, ok bool) string {
	if !ok {
		return ""
	}
	return renderCell(v)
}

func renderCell(v values.Value) string {
	switch v.Kind() {
	case values.KindList:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = renderCell(v.Elem(i))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case values.KindString, values.KindID, values.KindEnum:
		// Quote so that numeric-looking and comma-containing strings
		// survive the sniffer.
		return strconv.Quote(v.AsString())
	default:
		return v.String()
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
