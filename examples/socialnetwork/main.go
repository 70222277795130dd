// Socialnetwork reproduces §3.4 (Examples 3.9–3.11): edges whose targets
// span several node types via union types and — equivalently — interface
// types, and edges with multiple source types; plus the Appendix Figure 1
// star-wars schema parsed under the full SDL grammar.
//
// Run with: go run ./examples/socialnetwork
package main

import (
	"context"
	"fmt"
	"log"

	"pgschema"
)

// Examples 3.9 and 3.11 combined: union-typed targets and two source
// types for the owner edge.
const unionSDL = `
type Person {
	name: String! @required
	favoriteFood: Food
}
union Food = Pizza | Pasta
type Pizza {
	name: String! @required
	toppings: [String!]!
}
type Pasta {
	name: String! @required
}
type Car {
	brand: String! @required
	owner: Person
}
type Motorcycle {
	brand: String! @required
	owner: Person
}`

// Example 3.10: the interface formulation, which captures exactly the
// same restrictions.
const interfaceSDL = `
type Person {
	name: String! @required
	favoriteFood: Food
}
interface Food {
	name: String!
}
type Pizza implements Food {
	name: String! @required
	toppings: [String!]!
}
type Pasta implements Food {
	name: String! @required
}`

// Appendix Figure 1 (verbatim, including the root operation types the
// Property Graph interpretation ignores per §3.6).
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

func main() {
	union, err := pgschema.ParseSchema(unionSDL)
	if err != nil {
		log.Fatal(err)
	}
	iface, err := pgschema.ParseSchema(interfaceSDL)
	if err != nil {
		log.Fatal(err)
	}

	// Build the same graph twice; the two schemas accept and reject the
	// same graphs (§3.4: "two different options that serve the exact
	// same purpose").
	build := func() *pgschema.Graph {
		g := pgschema.NewGraph()
		olaf := g.AddNode("Person")
		g.SetNodeProp(olaf, "name", pgschema.String("Olaf"))
		pizza := g.AddNode("Pizza")
		g.SetNodeProp(pizza, "name", pgschema.String("Margherita"))
		g.SetNodeProp(pizza, "toppings", pgschema.List(pgschema.String("basil")))
		g.MustAddEdge(olaf, pizza, "favoriteFood")
		jan := g.AddNode("Person")
		g.SetNodeProp(jan, "name", pgschema.String("Jan"))
		pasta := g.AddNode("Pasta")
		g.SetNodeProp(pasta, "name", pgschema.String("Carbonara"))
		g.MustAddEdge(jan, pasta, "favoriteFood")
		return g
	}

	okGraph := build()
	fmt.Println("union vs interface formulation on the same graphs:")
	compare(union, iface, okGraph, "conformant graph")

	badGraph := build()
	p := badGraph.NodesLabeled("Person")[0]
	badGraph.MustAddEdge(badGraph.NodesLabeled("Person")[1], p, "favoriteFood") // Person is no Food
	compare(union, iface, badGraph, "favoriteFood pointing at a Person (WS3)")

	// Example 3.11: multiple source types for the same edge label.
	g := build()
	car := g.AddNode("Car")
	g.SetNodeProp(car, "brand", pgschema.String("Volvo"))
	moto := g.AddNode("Motorcycle")
	g.SetNodeProp(moto, "brand", pgschema.String("Husqvarna"))
	g.MustAddEdge(car, g.NodesLabeled("Person")[0], "owner")
	g.MustAddEdge(moto, g.NodesLabeled("Person")[1], "owner")
	res := pgschema.ValidateGraphContext(context.Background(), union, g, pgschema.ValidateOptions{})
	fmt.Printf("owner edges from Car and Motorcycle: ok=%v\n", res.OK())

	// Figure 1: full GraphQL schema including root operations.
	sw, err := pgschema.ParseSchema(figure1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 1 parses: %d object types (root Query included as an ordinary type)\n",
		len(sw.ObjectTypes()))
	swg := pgschema.NewGraph()
	luke := swg.AddNode("Human")
	swg.SetNodeProp(luke, "id", pgschema.ID("1000"))
	swg.SetNodeProp(luke, "name", pgschema.String("Luke Skywalker"))
	r2 := swg.AddNode("Droid")
	swg.SetNodeProp(r2, "id", pgschema.ID("2001"))
	swg.SetNodeProp(r2, "primaryFunction", pgschema.String("Astromech"))
	swg.MustAddEdge(luke, r2, "friends")
	swg.MustAddEdge(r2, luke, "friends")
	falcon := swg.AddNode("Starship")
	swg.SetNodeProp(falcon, "id", pgschema.ID("3000"))
	swg.SetNodeProp(falcon, "name", pgschema.String("Millennium Falcon"))
	swg.MustAddEdge(luke, falcon, "starships")
	res = pgschema.ValidateGraphContext(context.Background(), sw, swg, pgschema.ValidateOptions{})
	fmt.Printf("star-wars graph: ok=%v\n", res.OK())
	for _, v := range res.Violations {
		fmt.Println("   ", v)
	}
}

func compare(union, iface *pgschema.Schema, g *pgschema.Graph, title string) {
	u := pgschema.ValidateGraphContext(context.Background(), union, g, pgschema.ValidateOptions{})
	i := pgschema.ValidateGraphContext(context.Background(), iface, g, pgschema.ValidateOptions{})
	agree := "AGREE"
	if u.OK() != i.OK() {
		agree = "DISAGREE (bug!)"
	}
	fmt.Printf("  %-48s union ok=%-5v interface ok=%-5v %s\n", title, u.OK(), i.OK(), agree)
}
