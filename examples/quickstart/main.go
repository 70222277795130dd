// Quickstart: parse an SDL schema, build a small Property Graph, check
// strong satisfaction, and see what a violation report looks like.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pgschema"
)

const sdl = `
type User @key(fields: ["id"]) {
	id: ID! @required
	login: String! @required
	follows: [User] @distinct @noLoops
}`

func main() {
	s, err := pgschema.ParseSchema(sdl)
	if err != nil {
		log.Fatal(err)
	}

	g := pgschema.NewGraph()
	ada := g.AddNode("User")
	g.SetNodeProp(ada, "id", pgschema.ID("u1"))
	g.SetNodeProp(ada, "login", pgschema.String("ada"))
	bob := g.AddNode("User")
	g.SetNodeProp(bob, "id", pgschema.ID("u2"))
	g.SetNodeProp(bob, "login", pgschema.String("bob"))
	g.MustAddEdge(ada, bob, "follows")

	res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
	fmt.Printf("conformant graph: ok=%v\n", res.OK())

	// Now break three rules: a duplicate key, a loop, a missing login.
	evil := g.AddNode("User")
	g.SetNodeProp(evil, "id", pgschema.ID("u1")) // duplicate key → DS7, missing login → DS5
	g.MustAddEdge(bob, bob, "follows")           // loop → DS2

	res = pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
	fmt.Printf("after mutations: ok=%v, %d violations\n", res.OK(), len(res.Violations))
	for _, v := range res.Violations {
		fmt.Println("  ", v)
	}

	// Satisfiability: is there any graph with a User node at all?
	rep := pgschema.CheckType(s, "User", pgschema.SatOptions{})
	fmt.Printf("type User is %s (decided by %s)\n", rep.Verdict, rep.Method)
}
