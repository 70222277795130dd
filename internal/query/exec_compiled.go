package query

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"pgschema/internal/pg"
	"pgschema/internal/sched"
)

// cancelStride is how many node executions pass between context
// checks. Scans poll at this granularity so cancellation is prompt
// even on million-node result sets without a per-row atomic load.
const cancelStride = 2048

// Execute runs the named operation of the compiled plan against a
// graph, binding (or reusing the cached binding) at the graph's current
// epoch. An empty operationName selects the plan's only operation. The
// result is byte-identical (as JSON) to the interpretive Execute on the
// same document — the differential harness pins this.
//
// ctx is checked at scan boundaries every cancelStride nodes; a
// cancelled execution returns ctx.Err(). A nil ctx means Background.
func (p *Plan) Execute(ctx context.Context, g *pg.Graph, operationName string) (map[string]any, error) {
	op, err := p.pickOp(operationName)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	b := p.bindTo(g)
	ex := &cexec{b: b, ctx: ctx}
	if len(p.frags) > 0 {
		ex.active = make([]bool, len(p.frags))
	}
	out := make(map[string]any, len(op.steps))
	for i := range op.steps {
		if err := ex.rootStep(&op.steps[i], out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (p *Plan) pickOp(name string) (*planOp, error) {
	if name == "" {
		if len(p.ops) != 1 {
			return nil, &Error{Msg: fmt.Sprintf("document has %d operations; an operation name is required", len(p.ops))}
		}
		return p.ops[0], nil
	}
	for _, op := range p.ops {
		if op.name == name {
			return op, nil
		}
	}
	return nil, &Error{Msg: fmt.Sprintf("no operation named %q", name)}
}

// cexec is the per-request scratch: the epoch binding, the context, and
// the active-fragment bitset for cycle detection. Everything else the
// hot loop touches lives in the immutable plan and binding.
type cexec struct {
	b      *planBinding
	ctx    context.Context
	active []bool
	steps  int
}

func (ex *cexec) rootStep(st *rootStep, out map[string]any) error {
	switch st.kind {
	case rtErr:
		return st.err
	case rtTypename:
		out[st.key] = "Query"
	case rtList:
		list, err := ex.scanList(st, ex.b.snap.LabelNodes(ex.b.syms[st.typeSlot]))
		if err != nil {
			return err
		}
		out[st.key] = list
	case rtLookup:
		keys := ex.b.syms[st.keySlot : int(st.keySlot)+len(st.want)]
		var node pg.NodeID
		found := false
		for _, v := range ex.b.snap.KeyBucket(ex.b.syms[st.typeSlot], keys, st.bucketKey) {
			ok := true
			for i, want := range st.want {
				val, has := ex.b.snap.NodePropBySym(v, keys[i])
				if !has || !val.Equal(want) {
					ok = false
					break
				}
			}
			if ok {
				node, found = v, true
				break
			}
		}
		if !found {
			out[st.key] = nil
			return nil
		}
		m, err := ex.execNode(node, st.sub, st.subErr)
		if err != nil {
			return err
		}
		out[st.key] = m
	}
	return nil
}

// Parallel full-scan thresholds. A root allX scan with at least
// scanParallelMin nodes fans out over the work-stealing chunk scheduler
// (the same one the parallel validator dispatches on); smaller scans —
// and all scans on a single-proc box — stay on the caller's goroutine.
// Variables, not constants, so the differential tests can force the
// parallel path onto small fixtures.
var (
	scanParallelMin = 4096
	scanMaxWorkers  = runtime.GOMAXPROCS(0)
)

// scanSpan is the node span of one parallel scan chunk: enough rows to
// amortize the claim, small enough that the stealing cursor can rebalance
// a skewed selection (some nodes expand far more edges than others). A
// variable for the same reason as the thresholds above.
var scanSpan = 1024

// scanList materializes the root list for an allX step, sequentially or
// — for a large scan with workers available — in parallel. The parallel
// path writes each node's result into its own slot of the shared result
// slice, so element order is the enumeration order regardless of which
// worker computed what, and the output is byte-identical to the
// sequential scan. The first error in node order wins, matching the
// sequential scan's first-error semantics; once any worker fails, the
// remaining chunks are drained without executing.
func (ex *cexec) scanList(st *rootStep, nodes []pg.NodeID) ([]any, error) {
	workers := scanMaxWorkers
	if len(nodes) < scanParallelMin || workers < 2 {
		list := make([]any, 0, len(nodes))
		for _, v := range nodes {
			m, err := ex.execNode(v, st.sub, st.subErr)
			if err != nil {
				return nil, err
			}
			list = append(list, m)
		}
		return list, nil
	}

	nchunks := (len(nodes) + scanSpan - 1) / scanSpan
	if workers > nchunks {
		workers = nchunks
	}
	list := make([]any, len(nodes))
	errs := make([]error, nchunks)
	// Each worker gets its own cexec: the fragment-cycle bitset and the
	// cancellation stride counter are per-traversal state.
	workerEx := make([]*cexec, workers)
	for w := range workerEx {
		we := &cexec{b: ex.b, ctx: ex.ctx}
		if ex.active != nil {
			we.active = make([]bool, len(ex.active))
		}
		workerEx[w] = we
	}
	// errChunk tracks the lowest chunk that has failed so far. Chunks
	// beyond it drain without executing; chunks below it always run, so
	// the error that survives is the one the sequential scan would have
	// hit first (each chunk iterates ascending and stops at its first
	// failing node).
	errChunk := int64(nchunks)
	var minErr atomic.Int64
	minErr.Store(errChunk)
	sched.Run(workers, nchunks, func(worker, chunk int) {
		if int64(chunk) > minErr.Load() {
			return
		}
		we := workerEx[worker]
		lo := chunk * scanSpan
		hi := min(lo+scanSpan, len(nodes))
		for i := lo; i < hi; i++ {
			m, err := we.execNode(nodes[i], st.sub, st.subErr)
			if err != nil {
				errs[chunk] = err
				for {
					cur := minErr.Load()
					if int64(chunk) >= cur || minErr.CompareAndSwap(cur, int64(chunk)) {
						break
					}
				}
				return
			}
			list[i] = m
		}
	}, sched.Options{})
	if ec := minErr.Load(); ec < int64(nchunks) {
		return nil, errs[ec]
	}
	return list, nil
}

func (ex *cexec) execNode(v pg.NodeID, sub *selProg, subErr *Error) (map[string]any, error) {
	if subErr != nil {
		return nil, subErr
	}
	ex.steps++
	if ex.steps%cancelStride == 0 {
		if err := ex.ctx.Err(); err != nil {
			return nil, err
		}
	}
	out := make(map[string]any)
	if err := ex.execSel(v, sub, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (ex *cexec) execSel(v pg.NodeID, prog *selProg, out map[string]any) error {
	label := ex.b.snap.NodeLabelSym(v)
	for i := range prog.items {
		it := &prog.items[i]
		switch it.kind {
		case itTypename:
			out[it.key] = ex.b.g.SymName(label)
		case itField:
			val, err := ex.execField(v, label, it.fld)
			if err != nil {
				return err
			}
			out[it.key] = val
		case itInline:
			if it.condID < 0 || ex.b.condHolds(label, it.condID) {
				if err := ex.execSel(v, it.sub, out); err != nil {
					return err
				}
			}
		case itSpread:
			if it.err != nil {
				return it.err
			}
			if ex.active[it.fragIdx] {
				return it.cycleErr
			}
			fr := ex.b.p.frags[it.fragIdx]
			if ex.b.condHolds(label, fr.condID) {
				ex.active[it.fragIdx] = true
				err := ex.execSel(v, fr.sub, out)
				ex.active[it.fragIdx] = false
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (ex *cexec) execField(v pg.NodeID, label pg.Sym, f *fieldStep) (any, error) {
	// Inverse traversal, resolved by the node's concrete label before
	// static resolution — same precedence as the interpretive engine.
	if f.inv != nil {
		if row := ex.b.invRows[f.inv.idx]; int(label) < len(row) && label >= 0 && row[label] >= 0 {
			if f.inv.argsErr != nil {
				return nil, f.inv.argsErr
			}
			t := &f.inv.targets[row[label]]
			edgeSym, srcSym := ex.b.syms[t.edgeSlot], ex.b.syms[t.srcSlot]
			var list []any
			for _, e := range ex.b.snap.InEdgesOf(v) {
				if ex.b.snap.EdgeLabelSym(e) != edgeSym {
					continue
				}
				src, _ := ex.b.snap.Endpoints(e)
				if ex.b.snap.NodeLabelSym(src) != srcSym {
					continue
				}
				m, err := ex.execNode(src, t.sub, t.subErr)
				if err != nil {
					return nil, err
				}
				list = append(list, m)
			}
			if list == nil {
				list = []any{}
			}
			return list, nil
		}
	}

	switch f.kind {
	case stErr:
		return nil, f.err
	case stAttr:
		sym := ex.b.syms[f.slot]
		if !ex.b.snap.NodeHasProp(v, sym) {
			return nil, nil
		}
		val, _ := ex.b.snap.NodePropBySym(v, sym)
		return toNative(val), nil
	default: // stRel
		edgeSym := ex.b.syms[f.edgeSlot]
		var list []any
		for _, e := range ex.b.snap.OutEdgesOf(v) {
			if ex.b.snap.EdgeLabelSym(e) != edgeSym {
				continue
			}
			if !ex.edgeMatches(e, f.filters) {
				continue
			}
			_, dst := ex.b.snap.Endpoints(e)
			m, err := ex.execNode(dst, f.sub, f.subErr)
			if err != nil {
				return nil, err
			}
			list = append(list, m)
		}
		if f.isList {
			if list == nil {
				list = []any{}
			}
			return list, nil
		}
		if len(list) == 0 {
			return nil, nil
		}
		return list[0], nil
	}
}

func (ex *cexec) edgeMatches(e pg.EdgeID, filters []edgeFilter) bool {
	for i := range filters {
		flt := &filters[i]
		got, ok := ex.b.snap.EdgePropBySym(e, ex.b.syms[flt.slot])
		if flt.isNull {
			if ok && !got.IsNull() {
				return false
			}
			continue
		}
		if !ok || !got.Equal(flt.want) {
			return false
		}
	}
	return true
}
