package validate

import (
	"context"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
)

// ValidateOracle runs the sequential rule-by-rule oracle (oracle_test.go)
// with the adjacency-indexed WS4 and DS3. Options.Workers,
// ElementSharding, SchedStats and Program are ignored.
func ValidateOracle(s *schema.Schema, g *pg.Graph, opts Options) *Result {
	return validateOracle(context.Background(), s, g, opts, false)
}

// ValidateNaiveOracle is ValidateOracle with the textbook O(|E|²) pair
// scans for WS4 and DS3.
func ValidateNaiveOracle(s *schema.Schema, g *pg.Graph, opts Options) *Result {
	return validateOracle(context.Background(), s, g, opts, true)
}

// MissingKeyNotes counts the DS7 violations of res that carry no
// recorded bucket: a Revalidate seeded with res that must re-check one
// of them falls back to a full run.
func MissingKeyNotes(res *Result) int {
	n := 0
	for _, v := range res.Violations {
		if _, ok := res.keys[v]; v.Rule == DS7 && !ok {
			n++
		}
	}
	return n
}
