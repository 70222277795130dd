package validate

// The test oracle: the paper's rules evaluated the definitional way, one
// full sweep per rule, in paper order, on one goroutine. The rule bodies
// (oracle_ws_test.go, oracle_ss_test.go, oracle_ds_test.go) read the
// graph through its row-store accessors and never touch the compiled
// program or the columnar snapshot, so they share no evaluation code
// with the fused engine except DS7 (ds.go), whose unbound sweep is the
// one Revalidate runs. The differential harnesses compare every fused
// configuration against this oracle byte for byte.

import (
	"context"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
)

// oracle runs the rule bodies over a runner with no program bound.
// naive swaps in the textbook O(|E|²) pair scans for WS4 and DS3.
type oracle struct {
	*runner
	naive bool
}

// validateOracle checks the graph rule by rule. Its Truncated is exact:
// after the cap fills it keeps scanning until one more violation is
// rejected or the rules run out.
func validateOracle(ctx context.Context, s *schema.Schema, g *pg.Graph, opts Options, naive bool) *Result {
	rules := opts.rules()
	c := newCollector(opts.MaxViolations)
	o := &oracle{runner: &runner{s: s, g: g, opts: opts, coll: c, ctx: ctx}, naive: naive}
	var timings map[Rule]time.Duration
	if opts.CollectTimings {
		timings = make(map[Rule]time.Duration, len(rules))
	}
	for _, r := range rules {
		if c.truncated() || o.cancelled() {
			break
		}
		start := time.Now()
		o.runRule(r, c.emit)
		if timings != nil {
			timings[r] += time.Since(start)
		}
	}
	res := c.result()
	res.RuleTime = timings
	res.Workers = 1
	res.Incomplete = ctx.Err() != nil
	return res
}

// runRule evaluates one rule over the whole graph.
func (r *oracle) runRule(rule Rule, emit emitFunc) {
	switch rule {
	case WS1:
		r.ws1(emit)
	case WS2:
		r.ws2(emit)
	case WS3:
		r.ws3(emit)
	case WS4:
		r.ws4(emit)
	case DS1:
		r.ds1(emit)
	case DS2:
		r.ds2(emit)
	case DS3:
		r.ds3(emit)
	case DS4:
		r.ds4(emit)
	case DS5:
		r.ds5(emit)
	case DS6:
		r.ds6(emit)
	case DS7:
		r.ds7(emit)
	case SS1:
		r.ss1(emit)
	case SS2:
		r.ss2(emit)
	case SS3:
		r.ss3(emit)
	case SS4:
		r.ss4(emit)
	}
}
