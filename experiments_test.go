package pgschema_test

// The E-series tests reproduce every checkable artifact of the paper:
// its worked examples, its cardinality table, the Example 6.1
// satisfiability diagrams, and the Appendix Figure 1 schema. DESIGN.md
// §4 is the index; EXPERIMENTS.md records outcomes.

import (
	"context"
	"testing"

	"pgschema"
)

func mustParse(t *testing.T, sdl string) *pgschema.Schema {
	t.Helper()
	s, err := pgschema.ParseSchema(sdl)
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	return s
}

// cardinalitySchema instantiates the §3.3 table for a relationship "rel"
// from A to B in all four cardinality classes.
func cardinalitySchema(kind string) string {
	var field string
	switch kind {
	case "1:1":
		field = "rel: B @uniqueForTarget"
	case "1:N":
		field = "rel: B"
	case "N:1":
		field = "rel: [B] @uniqueForTarget"
	case "N:M":
		field = "rel: [B]"
	}
	return "type A { " + field + " }\ntype B { x: Int }"
}

// TestE1CardinalityTable verifies the acceptance matrix of the §3.3
// table: for each cardinality class, whether a source may have two
// outgoing rel edges and whether a target may have two incoming ones.
func TestE1CardinalityTable(t *testing.T) {
	cases := []struct {
		kind              string
		multiOut, multiIn bool // allowed?
	}{
		{"1:1", false, false},
		{"1:N", false, true},
		{"N:1", true, false},
		{"N:M", true, true},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			s := mustParse(t, cardinalitySchema(c.kind))

			// Fan-out: one A with two rel edges to two Bs.
			g := pgschema.NewGraph()
			a := g.AddNode("A")
			b1, b2 := g.AddNode("B"), g.AddNode("B")
			g.MustAddEdge(a, b1, "rel")
			g.MustAddEdge(a, b2, "rel")
			res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
			if res.OK() != c.multiOut {
				t.Errorf("%s: two outgoing edges ok=%v, want %v (%v)", c.kind, res.OK(), c.multiOut, res.Violations)
			}

			// Fan-in: two As with rel edges to one B.
			g = pgschema.NewGraph()
			a1, a2 := g.AddNode("A"), g.AddNode("A")
			b := g.AddNode("B")
			g.MustAddEdge(a1, b, "rel")
			g.MustAddEdge(a2, b, "rel")
			res = pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
			if res.OK() != c.multiIn {
				t.Errorf("%s: two incoming edges ok=%v, want %v (%v)", c.kind, res.OK(), c.multiIn, res.Violations)
			}

			// The 1:1 single-edge case is always fine.
			g = pgschema.NewGraph()
			a = g.AddNode("A")
			b = g.AddNode("B")
			g.MustAddEdge(a, b, "rel")
			if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
				t.Errorf("%s: single edge rejected: %v", c.kind, res.Violations)
			}
		})
	}
}

// TestE6PaperExamples is the golden suite over the paper's §3 examples:
// each subtest builds the example's schema, a conforming graph, and the
// non-conforming variations the prose calls out.
func TestE6PaperExamples(t *testing.T) {
	t.Run("Example3.1-3.3 UserSession schema", func(t *testing.T) {
		s := mustParse(t, `
			type UserSession {
				id: ID! @required
				user: User! @required
				startTime: Time! @required
				endTime: Time!
			}
			type User {
				id: ID! @required
				login: String! @required
				nicknames: [String!]!
			}
			scalar Time`)
		// "every node with the label User may have two or three
		// properties" (Example 3.3).
		g := pgschema.NewGraph()
		u := g.AddNode("User")
		g.SetNodeProp(u, "id", pgschema.ID("u1"))
		g.SetNodeProp(u, "login", pgschema.String("ada"))
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
			t.Errorf("two-property User rejected: %v", res.Violations)
		}
		g.SetNodeProp(u, "nicknames", pgschema.List(pgschema.String("lovelace")))
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
			t.Errorf("three-property User rejected: %v", res.Violations)
		}
		// "the value of nicknames must be an array of strings".
		g.SetNodeProp(u, "nicknames", pgschema.String("lovelace"))
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); res.OK() {
			t.Error("non-array nicknames accepted")
		}
	})

	t.Run("Example3.4 keys", func(t *testing.T) {
		s := mustParse(t, `
			type User @key(fields: ["id"]) @key(fields: ["login"]) {
				id: ID! @required
				login: String! @required
				nicknames: [String!]!
			}`)
		g := pgschema.NewGraph()
		for i, pair := range [][2]string{{"u1", "ada"}, {"u2", "bob"}} {
			u := g.AddNode("User")
			g.SetNodeProp(u, "id", pgschema.ID(pair[0]))
			g.SetNodeProp(u, "login", pgschema.String(pair[1]))
			_ = i
		}
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
			t.Errorf("distinct users rejected: %v", res.Violations)
		}
		u := g.AddNode("User")
		g.SetNodeProp(u, "id", pgschema.ID("u3"))
		g.SetNodeProp(u, "login", pgschema.String("ada")) // duplicate login
		res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
		if res.OK() {
			t.Error("duplicate login accepted despite @key(fields:[login])")
		}
	})

	t.Run("Example3.5 exactly one user edge", func(t *testing.T) {
		s := mustParse(t, `
			type UserSession { user: User! @required }
			type User { id: ID! }`)
		g := pgschema.NewGraph()
		sess := g.AddNode("UserSession")
		// Zero edges: DS6.
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); res.OK() {
			t.Error("UserSession without user edge accepted")
		}
		u := g.AddNode("User")
		g.MustAddEdge(sess, u, "user")
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
			t.Errorf("exactly one user edge rejected: %v", res.Violations)
		}
		u2 := g.AddNode("User")
		g.MustAddEdge(sess, u2, "user")
		// Two edges: WS4.
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); res.OK() {
			t.Error("two user edges accepted on non-list field")
		}
	})

	t.Run("Example3.6 books", func(t *testing.T) {
		s := mustParse(t, `
			type Author { favoriteBook: Book relatedAuthor: [Author] }
			type Book { title: String! author: [Author] @required }`)
		// "there may also be Author nodes that do not have any
		// outgoing edge".
		g := pgschema.NewGraph()
		g.AddNode("Author")
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
			t.Errorf("edge-free Author rejected: %v", res.Violations)
		}
		// "every Book node must have at least one outgoing edge".
		b := g.AddNode("Book")
		g.SetNodeProp(b, "title", pgschema.String("t"))
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); res.OK() {
			t.Error("author-less Book accepted")
		}
		g.MustAddEdge(b, g.NodesLabeled("Author")[0], "author")
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
			t.Errorf("single-author Book rejected: %v", res.Violations)
		}
	})

	t.Run("Example3.9-3.10 union and interface equivalence", func(t *testing.T) {
		unionS := mustParse(t, `
			type Person { name: String! favoriteFood: Food }
			union Food = Pizza | Pasta
			type Pizza { name: String! toppings: [String!]! }
			type Pasta { name: String! }`)
		ifaceS := mustParse(t, `
			type Person { name: String! favoriteFood: Food }
			interface Food { name: String! }
			type Pizza implements Food { name: String! toppings: [String!]! }
			type Pasta implements Food { name: String! }`)
		// "captures exactly the same restrictions": agreement over a
		// family of graphs.
		graphs := []func() *pgschema.Graph{
			func() *pgschema.Graph { // person → pizza
				g := pgschema.NewGraph()
				p := g.AddNode("Person")
				g.SetNodeProp(p, "name", pgschema.String("o"))
				z := g.AddNode("Pizza")
				g.SetNodeProp(z, "name", pgschema.String("m"))
				g.SetNodeProp(z, "toppings", pgschema.List())
				g.MustAddEdge(p, z, "favoriteFood")
				return g
			},
			func() *pgschema.Graph { // person → person (bad)
				g := pgschema.NewGraph()
				p1 := g.AddNode("Person")
				g.SetNodeProp(p1, "name", pgschema.String("a"))
				p2 := g.AddNode("Person")
				g.SetNodeProp(p2, "name", pgschema.String("b"))
				g.MustAddEdge(p1, p2, "favoriteFood")
				return g
			},
			func() *pgschema.Graph { // two favorite foods (bad: non-list)
				g := pgschema.NewGraph()
				p := g.AddNode("Person")
				g.SetNodeProp(p, "name", pgschema.String("a"))
				x := g.AddNode("Pasta")
				g.SetNodeProp(x, "name", pgschema.String("x"))
				y := g.AddNode("Pasta")
				g.SetNodeProp(y, "name", pgschema.String("y"))
				g.MustAddEdge(p, x, "favoriteFood")
				g.MustAddEdge(p, y, "favoriteFood")
				return g
			},
		}
		for i, build := range graphs {
			u := pgschema.ValidateGraphContext(context.Background(), unionS, build(), pgschema.ValidateOptions{})
			f := pgschema.ValidateGraphContext(context.Background(), ifaceS, build(), pgschema.ValidateOptions{})
			if u.OK() != f.OK() {
				t.Errorf("graph %d: union ok=%v, interface ok=%v — formulations must agree", i, u.OK(), f.OK())
			}
		}
	})

	t.Run("Example3.11 multiple source types", func(t *testing.T) {
		s := mustParse(t, `
			type Person { name: String! }
			type Car { brand: String! owner: Person }
			type Motorcycle { brand: String! owner: Person }`)
		g := pgschema.NewGraph()
		p := g.AddNode("Person")
		g.SetNodeProp(p, "name", pgschema.String("olaf"))
		c := g.AddNode("Car")
		g.SetNodeProp(c, "brand", pgschema.String("volvo"))
		m := g.AddNode("Motorcycle")
		g.SetNodeProp(m, "brand", pgschema.String("husqvarna"))
		g.MustAddEdge(c, p, "owner")
		g.MustAddEdge(m, p, "owner")
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
			t.Errorf("owner edges from two source types rejected: %v", res.Violations)
		}
	})

	t.Run("Example3.12 edge properties", func(t *testing.T) {
		s := mustParse(t, `
			type UserSession { user(certainty: Float! comment: String): User! @required }
			type User { id: ID! }`)
		g := pgschema.NewGraph()
		sess := g.AddNode("UserSession")
		u := g.AddNode("User")
		e := g.MustAddEdge(sess, u, "user")
		g.SetEdgeProp(e, "certainty", pgschema.Float(0.8))
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
			t.Errorf("valid edge property rejected: %v", res.Violations)
		}
		g.SetEdgeProp(e, "comment", pgschema.Int(7)) // comment: String
		if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); res.OK() {
			t.Error("integer comment accepted on String argument")
		}
	})
}

// figure1 is the Appendix Figure 1 schema, verbatim.
const figure1 = `
type Starship {
	id: ID!
	name: String
	length(unit: LenUnit = METER): Float
}
enum LenUnit { METER FEET }
interface Character {
	id: ID!
	name: String
	friends: [Character]
}
type Human implements Character {
	id: ID!
	name: String
	friends: [Character]
	starships: [Starship]
}
type Droid implements Character {
	id: ID!
	name: String
	friends: [Character]
	primaryFunction: String!
}
type Query {
	hero(episode: Episode): Character
	search(text: String): [SearchResult]
}
enum Episode { NEWHOPE EMPIRE JEDI }
union SearchResult = Human | Droid | Starship
schema {
	query: Query
}`

// TestE8Figure1 parses the appendix schema under the full SDL grammar and
// validates a conformant star-wars graph; root operation types are
// ignored per §3.6 but remain ordinary object types.
func TestE8Figure1(t *testing.T) {
	s := mustParse(t, figure1)
	if got := len(s.ObjectTypes()); got != 4 { // Starship, Human, Droid, Query
		t.Errorf("object types: %d, want 4", got)
	}
	if s.Type("Character") == nil || s.Type("SearchResult") == nil {
		t.Error("interface or union missing")
	}
	if s.Type("LenUnit") == nil || !s.Type("LenUnit").HasEnumValue("FEET") {
		t.Error("enum LenUnit incomplete")
	}

	g := pgschema.NewGraph()
	luke := g.AddNode("Human")
	g.SetNodeProp(luke, "id", pgschema.ID("1000"))
	g.SetNodeProp(luke, "name", pgschema.String("Luke Skywalker"))
	r2 := g.AddNode("Droid")
	g.SetNodeProp(r2, "id", pgschema.ID("2001"))
	g.SetNodeProp(r2, "primaryFunction", pgschema.String("Astromech"))
	g.MustAddEdge(luke, r2, "friends")
	g.MustAddEdge(r2, luke, "friends")
	falcon := g.AddNode("Starship")
	g.SetNodeProp(falcon, "id", pgschema.ID("3000"))
	g.SetNodeProp(falcon, "name", pgschema.String("Millennium Falcon"))
	g.MustAddEdge(luke, falcon, "starships")
	if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
		t.Errorf("star-wars graph rejected: %v", res.Violations)
	}

	// friends must point at Characters: a Starship friend violates WS3.
	g.MustAddEdge(r2, falcon, "friends")
	if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); res.OK() {
		t.Error("Starship accepted as a friend")
	}
}

// TestE3Example61 runs the satisfiability verdicts for the three diagrams
// of Example 6.1 through the public API (the internal sat tests cover the
// per-procedure behaviour).
func TestE3Example61(t *testing.T) {
	diagrams := []struct {
		name, sdl, query string
		skipConsistency  bool
	}{
		{"a", `
			type OT1 { }
			interface IT { hasOT1: OT1 @uniqueForTarget }
			type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
			type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }`,
			"OT1", true},
		{"b", `
			interface IT { f: [OT1] @uniqueForTarget @requiredForTarget }
			type OT2 implements IT { f: [OT1] @required }
			type OT3 implements IT { f: [OT1] @required }
			type OT1 { g: [OT3] @required @uniqueForTarget }`,
			"OT2", false},
		{"c", `
			interface IT { f: [OT1] @uniqueForTarget }
			type OT2 implements IT { f: [OT1] @required }
			type OT3 implements IT { f: [OT1] @requiredForTarget }
			type OT1 { }`,
			"OT2", false},
	}
	for _, d := range diagrams {
		t.Run(d.name, func(t *testing.T) {
			s, err := pgschema.ParseSchemaWithOptions(d.sdl, pgschema.BuildOptions{SkipConsistencyCheck: d.skipConsistency})
			if err != nil {
				t.Fatal(err)
			}
			rep := pgschema.CheckType(s, d.query, pgschema.SatOptions{})
			if rep.Verdict != pgschema.Unsatisfiable {
				t.Errorf("diagram (%s): %s must be unsatisfiable, got %s (%s): %s",
					d.name, d.query, rep.Verdict, rep.Method, rep.Detail)
			}
		})
	}
}
