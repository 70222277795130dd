// Usersessions reproduces the paper's running example (Examples 3.1–3.5
// and 3.12): the UserSession/User schema with a custom scalar, mandatory
// properties, key constraints, and edge properties declared through field
// arguments.
//
// Run with: go run ./examples/usersessions
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"pgschema"
)

// The schema of Example 3.1, extended with the @key of Example 3.4 and
// the edge properties of Example 3.12.
const sdl = `
type UserSession {
	id: ID! @required
	user(certainty: Float! comment: String): User! @required
	startTime: Time! @required
	endTime: Time!
}
type User @key(fields: ["id"]) @key(fields: ["login"]) {
	id: ID! @required
	login: String! @required
	nicknames: [String!]!
}
scalar Time`

func main() {
	s, err := pgschema.ParseSchema(sdl)
	if err != nil {
		log.Fatal(err)
	}
	// Give the Time scalar real semantics: ISO-ish timestamps only.
	s.SetScalarValidator("Time", func(v pgschema.Value) bool {
		return v.Kind().String() == "String" && strings.Contains(v.AsString(), "T")
	})

	g := pgschema.NewGraph()
	ada := g.AddNode("User")
	g.SetNodeProp(ada, "id", pgschema.ID("u1"))
	g.SetNodeProp(ada, "login", pgschema.String("ada"))
	g.SetNodeProp(ada, "nicknames", pgschema.List(pgschema.String("lovelace"), pgschema.String("al")))

	sess := g.AddNode("UserSession")
	g.SetNodeProp(sess, "id", pgschema.ID("s1"))
	g.SetNodeProp(sess, "startTime", pgschema.String("2019-06-30T09:00:00Z"))
	g.SetNodeProp(sess, "endTime", pgschema.String("2019-06-30T10:30:00Z"))
	e := g.MustAddEdge(sess, ada, "user")
	g.SetEdgeProp(e, "certainty", pgschema.Float(0.97))
	g.SetEdgeProp(e, "comment", pgschema.String("cookie match"))

	report(s, g, "conformant session graph")

	// Example 3.5: "every UserSession node must have exactly one
	// outgoing edge" — add a second user edge and watch WS4 fire.
	bob := g.AddNode("User")
	g.SetNodeProp(bob, "id", pgschema.ID("u2"))
	g.SetNodeProp(bob, "login", pgschema.String("bob"))
	g.MustAddEdge(sess, bob, "user")
	report(s, g, "after second user edge (WS4)")

	// Example 3.12: the certainty edge property is mandatory — an edge
	// without it passes WS2 (no value to type-check) but its absence is
	// visible when the value is mistyped.
	g2 := pgschema.NewGraph()
	u := g2.AddNode("User")
	g2.SetNodeProp(u, "id", pgschema.ID("u3"))
	g2.SetNodeProp(u, "login", pgschema.String("carol"))
	s2 := g2.AddNode("UserSession")
	g2.SetNodeProp(s2, "id", pgschema.ID("s2"))
	g2.SetNodeProp(s2, "startTime", pgschema.String("2019-07-01T08:00:00Z"))
	e2 := g2.MustAddEdge(s2, u, "user")
	g2.SetEdgeProp(e2, "certainty", pgschema.String("quite sure")) // not a Float!
	report(s, g2, "string-valued certainty (WS2)")

	// The Time validator in action: a malformed startTime.
	g3 := pgschema.NewGraph()
	u3 := g3.AddNode("User")
	g3.SetNodeProp(u3, "id", pgschema.ID("u4"))
	g3.SetNodeProp(u3, "login", pgschema.String("dan"))
	s3 := g3.AddNode("UserSession")
	g3.SetNodeProp(s3, "id", pgschema.ID("s3"))
	g3.SetNodeProp(s3, "startTime", pgschema.String("yesterday-ish"))
	g3.MustAddEdge(s3, u3, "user")
	report(s, g3, "malformed Time value (WS1 via custom scalar)")
}

func report(s *pgschema.Schema, g *pgschema.Graph, title string) {
	res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
	fmt.Printf("%-45s ok=%v", title, res.OK())
	if !res.OK() {
		fmt.Printf("  (%d violations)", len(res.Violations))
	}
	fmt.Println()
	for _, v := range res.Violations {
		fmt.Println("   ", v)
	}
}
