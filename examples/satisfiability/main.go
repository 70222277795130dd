// Satisfiability walks through §6.2: the three unsatisfiable diagrams of
// Example 6.1 and the Theorem 2 reduction from propositional SAT,
// exercising the full checker portfolio (counting, ALCQI tableau, bounded
// finite-model search).
//
// Run with: go run ./examples/satisfiability
package main

import (
	"context"
	"fmt"
	"log"

	"pgschema"
)

// Diagram (a), verbatim from Example 6.1. (As printed in the paper the
// schema violates Definition 4.3 — [OT1] is not a subtype of OT1 — so the
// consistency check is disabled to reproduce it literally.)
const diagramA = `
type OT1 {
}
interface IT {
	hasOT1: OT1 @uniqueForTarget
}
type OT2 implements IT {
	hasOT1: [OT1] @requiredForTarget
}
type OT3 implements IT {
	hasOT1: [OT1] @requiredForTarget
}`

// Diagram (b): a satisfying graph with an OT2 node would need an
// infinite alternating chain of OT1/OT3 nodes — finitely unsatisfiable
// although its ALCQI translation has an (infinite) model.
const diagramB = `
interface IT {
	f: [OT1] @uniqueForTarget @requiredForTarget
}
type OT2 implements IT {
	f: [OT1] @required
}
type OT3 implements IT {
	f: [OT1] @required
}
type OT1 {
	g: [OT3] @required @uniqueForTarget
}`

// Diagram (c): an OT2 node would have to coincide with an OT3 node.
const diagramC = `
interface IT {
	f: [OT1] @uniqueForTarget
}
type OT2 implements IT {
	f: [OT1] @required
}
type OT3 implements IT {
	f: [OT1] @requiredForTarget
}
type OT1 {
}`

func main() {
	fmt.Println("Example 6.1 — unsatisfiable object types:")
	for _, d := range []struct {
		name, sdl, query string
		skipConsistency  bool
	}{
		{"diagram (a)", diagramA, "OT1", true},
		{"diagram (b)", diagramB, "OT2", false},
		{"diagram (c)", diagramC, "OT2", false},
	} {
		s, err := pgschema.ParseSchemaWithOptions(d.sdl, pgschema.BuildOptions{SkipConsistencyCheck: d.skipConsistency})
		if err != nil {
			log.Fatalf("%s: %v", d.name, err)
		}
		rep := pgschema.CheckType(s, d.query, pgschema.SatOptions{})
		fmt.Printf("  %-12s type %-4s: %-13s (decided by %s)\n", d.name, d.query, rep.Verdict, rep.Method)
	}

	// A satisfiable schema with witnesses.
	fmt.Println("\nwitness construction:")
	s, err := pgschema.ParseSchema(`
		type Conference { talks: [Talk] @required @distinct }
		type Talk { speaker: Speaker! @required }
		type Speaker { name: String! @required }`)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"Conference", "Talk", "Speaker"} {
		rep := pgschema.CheckType(s, name, pgschema.SatOptions{})
		fmt.Printf("  %-11s %s via %s", name, rep.Verdict, rep.Method)
		if rep.Witness != nil {
			fmt.Printf(" — witness: %d nodes, %d edges", rep.Witness.NumNodes(), rep.Witness.NumEdges())
			// The witness really does satisfy the schema:
			res := pgschema.ValidateGraphContext(context.Background(), s, rep.Witness, pgschema.ValidateOptions{})
			fmt.Printf(" (revalidated: ok=%v)", res.OK())
		}
		fmt.Println()
	}

	// Edge-definition satisfiability (§6.2's closing remark).
	fmt.Println("\nedge-definition satisfiability:")
	repF := pgschema.CheckField(s, "Talk", "speaker", pgschema.SatOptions{})
	fmt.Printf("  Talk.speaker: %s (%s)\n", repF.Verdict, repF.Method)
}
