package pg

// Inflate materializes a loaded graph's row store, as its first write
// would, so tests can measure inflation on its own.
func Inflate(g *Graph) { g.ensureStore() }
