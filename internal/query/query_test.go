package query

import (
	"reflect"
	"strings"
	"testing"

	sdlparser "pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

func build(t testing.TB, src string) *schema.Schema {
	t.Helper()
	doc, err := sdlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse schema: %v", err)
	}
	s, err := schema.Build(doc, schema.Options{})
	if err != nil {
		t.Fatalf("build schema: %v", err)
	}
	return s
}

// starWarsSchema follows Appendix Figure 1, with keys added so that the
// API lookup fields exist.
const starWarsSchema = `
interface Character {
	id: ID!
	name: String
	friends: [Character]
}
type Human implements Character @key(fields: ["id"]) {
	id: ID! @required
	name: String
	friends: [Character]
	starships: [Starship]
}
type Droid implements Character @key(fields: ["id"]) {
	id: ID! @required
	name: String
	friends: [Character]
	primaryFunction: String!
}
type Starship @key(fields: ["id"]) {
	id: ID! @required
	name: String
	length: Float
}`

// starWarsGraph builds the canonical mini star-wars graph.
func starWarsGraph(t *testing.T, s *schema.Schema) *pg.Graph {
	t.Helper()
	g := pg.New()
	add := func(label, id, name string) pg.NodeID {
		n := g.AddNode(label)
		g.SetNodeProp(n, "id", values.ID(id))
		if name != "" {
			g.SetNodeProp(n, "name", values.String(name))
		}
		return n
	}
	luke := add("Human", "1000", "Luke Skywalker")
	han := add("Human", "1002", "Han Solo")
	r2 := add("Droid", "2001", "R2-D2")
	g.SetNodeProp(r2, "primaryFunction", values.String("Astromech"))
	falcon := add("Starship", "3000", "Millennium Falcon")
	g.SetNodeProp(falcon, "length", values.Float(34.37))
	g.MustAddEdge(luke, r2, "friends")
	g.MustAddEdge(luke, han, "friends")
	g.MustAddEdge(r2, luke, "friends")
	g.MustAddEdge(han, luke, "friends")
	g.MustAddEdge(han, falcon, "starships")
	return g
}

func run(t *testing.T, s *schema.Schema, g *pg.Graph, q string) map[string]any {
	t.Helper()
	out, err := ExecuteQuery(s, g, q)
	if err != nil {
		t.Fatalf("ExecuteQuery(%s): %v", q, err)
	}
	return out
}

func runErr(t *testing.T, s *schema.Schema, g *pg.Graph, q, wantSubstr string) {
	t.Helper()
	_, err := ExecuteQuery(s, g, q)
	if err == nil {
		t.Fatalf("ExecuteQuery(%s): expected error containing %q", q, wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err, wantSubstr)
	}
}

func TestLookupByKey(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	out := run(t, s, g, `{ human(id: "1000") { name __typename } }`)
	want := map[string]any{"human": map[string]any{"name": "Luke Skywalker", "__typename": "Human"}}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("got %v, want %v", out, want)
	}
	// Unmatched key → null.
	out = run(t, s, g, `{ human(id: "9999") { name } }`)
	if out["human"] != nil {
		t.Errorf("missing human: %v", out)
	}
}

func TestListAll(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	out := run(t, s, g, `{ allHumans { name } }`)
	list := out["allHumans"].([]any)
	if len(list) != 2 {
		t.Fatalf("allHumans: %v", list)
	}
	names := []string{
		list[0].(map[string]any)["name"].(string),
		list[1].(map[string]any)["name"].(string),
	}
	if names[0] != "Luke Skywalker" || names[1] != "Han Solo" {
		t.Errorf("names: %v", names)
	}
}

func TestTraversalAndInterfaces(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	out := run(t, s, g, `{
		human(id: "1000") {
			name
			friends {
				__typename
				name
				... on Droid { primaryFunction }
			}
		}
	}`)
	human := out["human"].(map[string]any)
	friends := human["friends"].([]any)
	if len(friends) != 2 {
		t.Fatalf("friends: %v", friends)
	}
	droid := friends[0].(map[string]any)
	if droid["__typename"] != "Droid" || droid["primaryFunction"] != "Astromech" {
		t.Errorf("droid friend: %v", droid)
	}
	han := friends[1].(map[string]any)
	if han["__typename"] != "Human" {
		t.Errorf("human friend: %v", han)
	}
	if _, ok := han["primaryFunction"]; ok {
		t.Error("fragment leaked onto a Human")
	}
}

func TestNamedFragments(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	out := run(t, s, g, `
		query Friends { human(id: "1000") { friends { ...charFields } } }
		fragment charFields on Character { id name }`)
	friends := out["human"].(map[string]any)["friends"].([]any)
	if friends[0].(map[string]any)["id"] != "2001" {
		t.Errorf("fragment fields: %v", friends)
	}
}

func TestFragmentCycleDetected(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	runErr(t, s, g, `
		query Q { human(id: "1000") { ...a } }
		fragment a on Human { ...b }
		fragment b on Human { ...a }`, "fragment cycle")
}

func TestAliases(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	out := run(t, s, g, `{ hero: human(id: "1000") { moniker: name } }`)
	hero := out["hero"].(map[string]any)
	if hero["moniker"] != "Luke Skywalker" {
		t.Errorf("alias: %v", out)
	}
}

func TestInverseFields(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	// Who has the Falcon among their starships? (bidirectional
	// traversal per §3.6 — the starships edge is declared on Human.)
	out := run(t, s, g, `{ starship(id: "3000") { name _starshipsOfHuman { name } } }`)
	ship := out["starship"].(map[string]any)
	owners := ship["_starshipsOfHuman"].([]any)
	if len(owners) != 1 || owners[0].(map[string]any)["name"] != "Han Solo" {
		t.Errorf("owners: %v", owners)
	}
}

func TestEdgePropertyFilter(t *testing.T) {
	s := build(t, `
		type User @key(fields: ["id"]) {
			id: ID! @required
			follows(since: Int): [User]
		}`)
	g := pg.New()
	a := g.AddNode("User")
	g.SetNodeProp(a, "id", values.ID("a"))
	b := g.AddNode("User")
	g.SetNodeProp(b, "id", values.ID("b"))
	c := g.AddNode("User")
	g.SetNodeProp(c, "id", values.ID("c"))
	e1 := g.MustAddEdge(a, b, "follows")
	g.SetEdgeProp(e1, "since", values.Int(2019))
	e2 := g.MustAddEdge(a, c, "follows")
	g.SetEdgeProp(e2, "since", values.Int(2021))

	out := run(t, s, g, `{ user(id: "a") { follows(since: 2019) { id } } }`)
	follows := out["user"].(map[string]any)["follows"].([]any)
	if len(follows) != 1 || follows[0].(map[string]any)["id"] != "b" {
		t.Errorf("filtered follows: %v", follows)
	}
	// Without the filter, both.
	out = run(t, s, g, `{ user(id: "a") { follows { id } } }`)
	if got := len(out["user"].(map[string]any)["follows"].([]any)); got != 2 {
		t.Errorf("unfiltered follows: %d", got)
	}
}

func TestNonListRelationship(t *testing.T) {
	s := build(t, `
		type Session @key(fields: ["id"]) { id: ID! @required user: User! @required }
		type User { id: ID! }`)
	g := pg.New()
	sess := g.AddNode("Session")
	g.SetNodeProp(sess, "id", values.ID("s1"))
	u := g.AddNode("User")
	g.SetNodeProp(u, "id", values.ID("u1"))
	g.MustAddEdge(sess, u, "user")
	out := run(t, s, g, `{ session(id: "s1") { user { id } } }`)
	user := out["session"].(map[string]any)["user"].(map[string]any)
	if user["id"] != "u1" {
		t.Errorf("user: %v", out)
	}
	// A session with no edge yields null (not an empty list).
	sess2 := g.AddNode("Session")
	g.SetNodeProp(sess2, "id", values.ID("s2"))
	out = run(t, s, g, `{ session(id: "s2") { user { id } } }`)
	if out["session"].(map[string]any)["user"] != nil {
		t.Errorf("dangling user: %v", out)
	}
}

func TestValidationErrors(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	runErr(t, s, g, `{ nonsense { id } }`, "unknown query field")
	runErr(t, s, g, `{ human(id: "1000") { wrongField } }`, "no field")
	runErr(t, s, g, `{ human(id: "1000") { name { sub } } }`, "no sub-selections")
	runErr(t, s, g, `{ human(id: "1000") { friends } }`, "requires a selection set")
	runErr(t, s, g, `{ human(wrong: 1) { name } }`, "not a key field")
	runErr(t, s, g, `{ human { name } }`, "requires the full key")
	runErr(t, s, g, `{ human(id: "1000") { ...ghost } }`, "undefined fragment")
	runErr(t, s, g, `{ allHumans(id: 3) { name } }`, "takes no arguments")
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{``, "no operations"},
		{`mutation { x }`, "not supported"},
		{`{ }`, "must not be empty"},
		{`query Q { f(a: $v) { x } }`, "variables are not supported"},
		{`fragment on on Human { id }`, "must not be"},
		{`fragment f Human { id }`, "expected keyword"},
		{`{ f(a: {x: 1}) { y } }`, "argument value"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): got %v, want error containing %q", c.src, err, c.want)
		}
	}
}

func TestOperationSelection(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	doc, err := Parse(`
		query A { allHumans { id } }
		query B { allDroids { id } }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(s, g, doc, ""); err == nil {
		t.Error("ambiguous operation accepted")
	}
	out, err := Execute(s, g, doc, "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(out["allDroids"].([]any)) != 1 {
		t.Errorf("operation B: %v", out)
	}
	if _, err := Execute(s, g, doc, "C"); err == nil {
		t.Error("unknown operation accepted")
	}
}

func TestUnionRequiresFragments(t *testing.T) {
	s := build(t, `
		type Person @key(fields: ["name"]) { name: String! @required favoriteFood: Food }
		union Food = Pizza | Pasta
		type Pizza { name: String! }
		type Pasta { name: String! }`)
	g := pg.New()
	p := g.AddNode("Person")
	g.SetNodeProp(p, "name", values.String("olaf"))
	z := g.AddNode("Pizza")
	g.SetNodeProp(z, "name", values.String("margherita"))
	g.MustAddEdge(p, z, "favoriteFood")

	out := run(t, s, g, `{ person(name: "olaf") { favoriteFood { __typename ... on Pizza { name } } } }`)
	food := out["person"].(map[string]any)["favoriteFood"].(map[string]any)
	if food["__typename"] != "Pizza" || food["name"] != "margherita" {
		t.Errorf("union dispatch: %v", food)
	}
	// Direct fields on a union are rejected.
	runErr(t, s, g, `{ person(name: "olaf") { favoriteFood { name } } }`, "union")
}

func TestListPropertyValues(t *testing.T) {
	s := build(t, `
		type User @key(fields: ["id"]) {
			id: ID! @required
			nicknames: [String!]
		}`)
	g := pg.New()
	u := g.AddNode("User")
	g.SetNodeProp(u, "id", values.ID("u1"))
	g.SetNodeProp(u, "nicknames", values.List(values.String("a"), values.String("b")))
	out := run(t, s, g, `{ user(id: "u1") { nicknames } }`)
	nick := out["user"].(map[string]any)["nicknames"].([]any)
	if len(nick) != 2 || nick[0] != "a" {
		t.Errorf("nicknames: %v", nick)
	}
}

func TestExecuteQueryParseError(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	if _, err := ExecuteQuery(s, g, "{ broken"); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestInverseFieldRejectsArguments(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	runErr(t, s, g, `{ starship(id: "3000") { _starshipsOfHuman(x: 1) { name } } }`, "no arguments")
}

func TestAttributeFieldRejectsArguments(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	runErr(t, s, g, `{ human(id: "1000") { name(x: 1) } }`, "no arguments")
}

func TestUnknownRelationshipArgument(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	runErr(t, s, g, `{ human(id: "1000") { friends(bogus: 1) { name } } }`, "no argument")
}

func TestConditionlessInlineFragment(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	out := run(t, s, g, `{ human(id: "1000") { ... { name } } }`)
	if out["human"].(map[string]any)["name"] != "Luke Skywalker" {
		t.Errorf("conditionless fragment: %v", out)
	}
}

func TestFragmentOnNonMatchingTypeSkipped(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	out := run(t, s, g, `{ human(id: "1000") { ... on Droid { primaryFunction } __typename } }`)
	h := out["human"].(map[string]any)
	if _, leaked := h["primaryFunction"]; leaked {
		t.Errorf("mismatching fragment applied: %v", h)
	}
}

func TestNullArgumentMatchesAbsentEdgeProperty(t *testing.T) {
	s := build(t, `
		type User @key(fields: ["id"]) {
			id: ID! @required
			follows(since: Int): [User]
		}`)
	g := pg.New()
	a := g.AddNode("User")
	g.SetNodeProp(a, "id", values.ID("a"))
	b := g.AddNode("User")
	g.SetNodeProp(b, "id", values.ID("b"))
	c := g.AddNode("User")
	g.SetNodeProp(c, "id", values.ID("c"))
	g.MustAddEdge(a, b, "follows") // no property
	e := g.MustAddEdge(a, c, "follows")
	g.SetEdgeProp(e, "since", values.Int(2020))
	out := run(t, s, g, `{ user(id: "a") { follows(since: null) { id } } }`)
	follows := out["user"].(map[string]any)["follows"].([]any)
	if len(follows) != 1 || follows[0].(map[string]any)["id"] != "b" {
		t.Errorf("null filter: %v", follows)
	}
}

func TestListAndFloatArguments(t *testing.T) {
	s := build(t, `
		type N @key(fields: ["id"]) {
			id: ID! @required
			rel(w: Float, tags: [String!]): [N]
		}`)
	g := pg.New()
	x := g.AddNode("N")
	g.SetNodeProp(x, "id", values.ID("x"))
	y := g.AddNode("N")
	g.SetNodeProp(y, "id", values.ID("y"))
	e := g.MustAddEdge(x, y, "rel")
	g.SetEdgeProp(e, "w", values.Float(0.5))
	g.SetEdgeProp(e, "tags", values.List(values.String("a"), values.String("b")))
	out := run(t, s, g, `{ n(id: "x") { rel(w: 0.5, tags: ["a" "b"]) { id } } }`)
	rel := out["n"].(map[string]any)["rel"].([]any)
	if len(rel) != 1 {
		t.Errorf("list/float filter: %v", out)
	}
	out = run(t, s, g, `{ n(id: "x") { rel(w: 0.25) { id } } }`)
	if got := out["n"].(map[string]any)["rel"].([]any); len(got) != 0 {
		t.Errorf("non-matching float filter: %v", got)
	}
}
