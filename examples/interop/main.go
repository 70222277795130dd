// Interop demonstrates the two bridges out of the core proposal:
//
//  1. the §3.6 extension of a Property Graph schema into a GraphQL API
//     schema (query root type + inverse fields for bidirectional
//     traversal), and
//  2. the translation onto the baseline Property Graph schema model of
//     Angles (AMW 2018) from the paper's related work, with both
//     validators agreeing on the same graph.
//
// Run with: go run ./examples/interop
package main

import (
	"context"
	"fmt"
	"log"

	"pgschema"
	"pgschema/internal/angles"
	"pgschema/internal/parser"
	"pgschema/internal/schema"
)

const sdl = `
type Author @key(fields: ["name"]) {
	name: String! @required
	wrote: [Book] @requiredForTarget
}
type Book {
	title: String! @required
	sequelOf: Book @uniqueForTarget
}`

func main() {
	s, err := pgschema.ParseSchema(sdl)
	if err != nil {
		log.Fatal(err)
	}

	// --- 1. GraphQL API schema extension (§3.6). ---
	api, err := pgschema.ExtendToAPISchema(s, pgschema.APIOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== generated GraphQL API schema (§3.6 extension) ===")
	fmt.Println(api)

	// --- 2. The Angles (2018) baseline. ---
	// The example schema lies in the translatable common fragment.
	doc, err := parser.Parse(sdl)
	if err != nil {
		log.Fatal(err)
	}
	formal, err := schema.Build(doc, schema.Options{})
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := angles.Translate(formal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Angles baseline translation ===")
	for _, nt := range baseline.NodeTypes {
		fmt.Printf("node type %s: %d properties\n", nt.Label, len(nt.Props))
	}
	for _, et := range baseline.EdgeTypes {
		fmt.Printf("edge type (%s)-[%s]->(%s) out[%d..%d] in[%d..%d]\n",
			et.Source, et.Label, et.Target, et.MinOut, et.MaxOut, et.MinIn, et.MaxIn)
	}

	// Both validators judge the same graphs identically on this
	// fragment.
	g := pgschema.NewGraph()
	ada := g.AddNode("Author")
	g.SetNodeProp(ada, "name", pgschema.String("Ada"))
	b1 := g.AddNode("Book")
	g.SetNodeProp(b1, "title", pgschema.String("Notes, Vol. 1"))
	b2 := g.AddNode("Book")
	g.SetNodeProp(b2, "title", pgschema.String("Notes, Vol. 2"))
	g.MustAddEdge(ada, b1, "wrote")
	g.MustAddEdge(ada, b2, "wrote")
	g.MustAddEdge(b2, b1, "sequelOf")

	sdlRes := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
	anglesRes := baseline.Validate(g)
	fmt.Printf("\nconformant graph:     SDL ok=%v, Angles ok=%v\n", sdlRes.OK(), len(anglesRes) == 0)

	// Break it: a book nobody wrote (DS4 / in-cardinality) and a second
	// sequelOf into b1 (DS3 / in-cardinality).
	orphan := g.AddNode("Book")
	g.SetNodeProp(orphan, "title", pgschema.String("Apocrypha"))
	g.MustAddEdge(orphan, b1, "sequelOf")
	sdlRes = pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
	anglesRes = baseline.Validate(g)
	fmt.Printf("after bad mutations:  SDL %d violations, Angles %d violations\n",
		len(sdlRes.Violations), len(anglesRes))
	for _, v := range sdlRes.Violations {
		fmt.Println("  SDL   ", v)
	}
	for _, v := range anglesRes {
		fmt.Println("  Angles", v)
	}
}
