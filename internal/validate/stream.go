// Validate-on-ingest: the streamed CSV load and the first validation
// pass share one materialization. pg.ReadCSVStream seals the loaded
// rows directly into the columnar Snapshot the fused engine scans, so
// the two-phase load-then-validate path's second full pass over the
// graph (folding the loaded rows into a snapshot) never happens; schema compilation overlaps the
// load on a separate goroutine for the same reason.

package validate

import (
	"context"
	"io"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
)

// ValidateStream loads a property graph from the nodes/edges CSV
// streams with the streaming columnar builder and validates it in the
// same materialization: the sealed columns are handed to the engine
// as a pre-built snapshot, and the program (opts.Program, or one
// compiled concurrently with the load) binds to them directly.
//
// The result is identical — byte-for-byte over rendered violations —
// to pg.ReadCSVStream followed by Validate with the same options. On a
// load error the graph and result are nil.
func ValidateStream(ctx context.Context, s *schema.Schema, nodes, edges io.Reader, opts Options) (*Result, *pg.Graph, error) {
	// Compile while the load streams; for a typical schema this hides
	// the whole compile behind the first few MB of CSV.
	progCh := make(chan *Program, 1)
	if opts.Program != nil && opts.Program.Schema() == s {
		progCh <- opts.Program
	} else {
		go func() { progCh <- Compile(s) }()
	}

	g, err := pg.ReadCSVStreamContext(ctx, nodes, edges)
	if err != nil {
		return nil, nil, err
	}
	opts.Program = <-progCh
	return ValidateContext(ctx, s, g, opts), g, nil
}
