package pg

// The two-phase CSV loader: rows are parsed into per-row structs and
// applied through the graph's mutation path, and the columnar snapshot
// is built afterwards on first use. ReadCSVStream replaced it in
// production; it stays here as the oracle the streaming loader's
// differential and diagnostics tests compare against.

import (
	"fmt"
	"io"
)

// ReadCSV loads a graph from the layout ReadCSVStream reads, in two
// phases: parse workers turn record batches into per-row structs
// (readCSVRecords), and the builder applies them in record order
// through the mutation path — nodes first, then edges.
func ReadCSV(nodes, edges io.Reader) (*Graph, error) {
	g := New()
	byName := make(map[string]NodeID)
	if err := g.readNodeCSV(nodes, byName); err != nil {
		return nil, err
	}
	if err := g.readEdgeCSV(edges, byName); err != nil {
		return nil, err
	}
	return g, nil
}

// parseRow sniffs the property cells of one record into a name-sorted
// Prop slice. A duplicate header column overwrites the earlier one, as
// the sequential loader's repeated SetNodeProp did.
func (c *propCols) parseRow(rec []string) []Prop {
	return c.parseRowInto(nil, rec, 0)
}

type parsedNode struct {
	id    string
	label string
	props []Prop
	err   error
}

type nodeBatch struct {
	seq   int
	lines []int
	rows  []parsedNode
}

func (b nodeBatch) seqNo() int { return b.seq }

func (g *Graph) readNodeCSV(r io.Reader, byName map[string]NodeID) error {
	cr, header, err := openCSV(r)
	if err := checkNodeHeader(header, err); err != nil {
		return err
	}
	cols := newPropCols(&g.syms, header, 2)

	parse := func(b rawBatch) seqBatch {
		out := nodeBatch{seq: b.seq, lines: b.lines, rows: make([]parsedNode, len(b.rows))}
		for i, rec := range b.rows {
			if err := checkNodeRecord(rec, len(cols.names), b.lines[i]); err != nil {
				out.rows[i].err = err
				continue
			}
			out.rows[i] = parsedNode{id: rec[0], label: rec[1], props: cols.parseRow(rec)}
		}
		return out
	}

	// Run-length label cache: consecutive rows of one label intern once.
	lastLabel, lastSym := "", NoSym
	apply := func(pb seqBatch) error {
		b := pb.(nodeBatch)
		for i, row := range b.rows {
			if row.err != nil {
				return row.err
			}
			if _, dup := byName[row.id]; dup {
				return fmt.Errorf("pg: node CSV line %d: duplicate node id %q", b.lines[i], row.id)
			}
			if row.label != lastLabel || lastSym == NoSym {
				lastLabel, lastSym = row.label, g.syms.intern(row.label)
			}
			id := g.addNodeSym(lastSym)
			byName[row.id] = id
			if len(row.props) > 0 {
				g.setNodePropsSorted(id, row.props)
			}
		}
		return nil
	}

	return readCSVRecords(cr, parse, apply, nodeReadErr)
}

type parsedEdge struct {
	src, dst NodeID
	label    string
	props    []Prop
	err      error
}

type edgeBatch struct {
	seq  int
	rows []parsedEdge
}

func (b edgeBatch) seqNo() int { return b.seq }

func (g *Graph) readEdgeCSV(r io.Reader, byName map[string]NodeID) error {
	cr, header, err := openCSV(r)
	if err := checkEdgeHeader(header, err); err != nil {
		return err
	}
	cols := newPropCols(&g.syms, header, 3)

	// The node phase is complete, so byName is read-only here and
	// endpoint resolution can run on the parse workers.
	parse := func(b rawBatch) seqBatch {
		out := edgeBatch{seq: b.seq, rows: make([]parsedEdge, len(b.rows))}
		for i, rec := range b.rows {
			if err := checkEdgeRecord(rec, len(cols.names), b.lines[i]); err != nil {
				out.rows[i].err = err
				continue
			}
			src, dst, err := resolveEndpoints(byName, rec, b.lines[i])
			if err != nil {
				out.rows[i].err = err
				continue
			}
			out.rows[i] = parsedEdge{src: src, dst: dst, label: rec[2], props: cols.parseRow(rec)}
		}
		return out
	}

	lastLabel, lastSym := "", NoSym
	apply := func(pb seqBatch) error {
		for _, row := range pb.(edgeBatch).rows {
			if row.err != nil {
				return row.err
			}
			if row.label != lastLabel || lastSym == NoSym {
				lastLabel, lastSym = row.label, g.syms.intern(row.label)
			}
			eid, err := g.addEdgeSym(row.src, row.dst, lastSym)
			if err != nil {
				return err
			}
			if len(row.props) > 0 {
				g.setEdgePropsSorted(eid, row.props)
			}
		}
		return nil
	}

	return readCSVRecords(cr, parse, apply, edgeReadErr)
}

// resolveEndpoints maps an edge record's source and target ids through
// the node-phase name index, diagnosing unknown endpoints with the
// record's physical line.
func resolveEndpoints(byName map[string]NodeID, rec []string, line int) (src, dst NodeID, err error) {
	src, ok := byName[rec[0]]
	if !ok {
		return 0, 0, fmt.Errorf("pg: edge CSV line %d: unknown source %q", line, rec[0])
	}
	dst, ok = byName[rec[1]]
	if !ok {
		return 0, 0, fmt.Errorf("pg: edge CSV line %d: unknown target %q", line, rec[1])
	}
	return src, dst, nil
}
