// Bookstore reproduces Examples 3.6–3.8 and the cardinality table of
// §3.3: all four relationship cardinality classes (1:1, 1:N, N:1, N:M),
// @distinct, @noLoops, @uniqueForTarget, and @requiredForTarget.
//
// Run with: go run ./examples/bookstore
package main

import (
	"context"
	"fmt"
	"log"

	"pgschema"
)

// The schema of Example 3.6 with the refinements of Examples 3.7/3.8.
const sdl = `
type Author {
	favoriteBook: Book
	relatedAuthor: [Author] @distinct @noLoops
}
type Book {
	title: String!
	author: [Author] @required @distinct
}
type BookSeries {
	contains: [Book] @required @uniqueForTarget
}
type Publisher {
	published: [Book] @uniqueForTarget @requiredForTarget
}`

func main() {
	s, err := pgschema.ParseSchema(sdl)
	if err != nil {
		log.Fatal(err)
	}

	// A small conforming bookstore.
	g := pgschema.NewGraph()
	tolkien := g.AddNode("Author")
	lewis := g.AddNode("Author")
	hobbit := book(g, "The Hobbit")
	narnia := book(g, "The Lion, the Witch and the Wardrobe")
	g.MustAddEdge(hobbit, tolkien, "author")
	g.MustAddEdge(narnia, lewis, "author")
	g.MustAddEdge(tolkien, hobbit, "favoriteBook")
	g.MustAddEdge(tolkien, lewis, "relatedAuthor")
	g.MustAddEdge(lewis, tolkien, "relatedAuthor")
	allen := g.AddNode("Publisher")
	g.MustAddEdge(allen, hobbit, "published")
	g.MustAddEdge(allen, narnia, "published")
	middleEarth := g.AddNode("BookSeries")
	g.MustAddEdge(middleEarth, hobbit, "contains")

	check(s, g, "conforming bookstore")

	// §3.3's table, demonstrated by violation:
	// N:1 — "contains" is [Book] @uniqueForTarget: a second series
	// containing the Hobbit breaks DS3.
	scenario(s, g, "second series containing the same book (DS3)", func(g *pgschema.Graph) {
		s2 := g.AddNode("BookSeries")
		g.MustAddEdge(s2, g.NodesLabeled("Book")[0], "contains")
	})

	// 1:N — "favoriteBook" is non-list: two favorites break WS4.
	scenario(s, g, "two favorite books (WS4)", func(g *pgschema.Graph) {
		a := g.NodesLabeled("Author")[0]
		g.MustAddEdge(a, g.NodesLabeled("Book")[1], "favoriteBook")
	})

	// Participation — every Book needs an author edge (DS6) and an
	// incoming published edge (DS4).
	scenario(s, g, "book without author or publisher (DS4+DS6)", func(g *pgschema.Graph) {
		book(g, "Orphaned Manuscript")
	})

	// @distinct (Example 3.7): duplicate author edges.
	scenario(s, g, "duplicate author edge (DS1)", func(g *pgschema.Graph) {
		b := g.NodesLabeled("Book")[0]
		g.MustAddEdge(b, g.NodesLabeled("Author")[0], "author")
	})

	// @noLoops (Example 3.7): an author related to themselves.
	scenario(s, g, "self-related author (DS2)", func(g *pgschema.Graph) {
		a := g.NodesLabeled("Author")[0]
		g.MustAddEdge(a, a, "relatedAuthor")
	})

	// Satisfiability of every type in the schema.
	fmt.Println("\nobject-type satisfiability (§6.2):")
	for _, td := range s.ObjectTypes() {
		rep := pgschema.CheckType(s, td.Name, pgschema.SatOptions{})
		fmt.Printf("  %-12s %s (%s)\n", td.Name, rep.Verdict, rep.Method)
	}
}

func book(g *pgschema.Graph, title string) pgschema.NodeID {
	b := g.AddNode("Book")
	g.SetNodeProp(b, "title", pgschema.String(title))
	return b
}

func check(s *pgschema.Schema, g *pgschema.Graph, title string) {
	res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
	fmt.Printf("%-50s ok=%v\n", title, res.OK())
	for _, v := range res.Violations {
		fmt.Println("   ", v)
	}
}

// scenario runs a mutation against a clone so scenarios stay independent.
func scenario(s *pgschema.Schema, g *pgschema.Graph, title string, mutate func(*pgschema.Graph)) {
	c := g.Clone()
	mutate(c)
	check(s, c, title)
}
