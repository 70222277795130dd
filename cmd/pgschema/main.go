// Command pgschema is the command-line front end to the library: it
// parses and formats SDL schemas, checks their consistency, validates
// Property Graphs against them, decides object-type satisfiability,
// generates conformant graphs, extends schemas into GraphQL APIs (and
// serves them over HTTP), exports proprietary DDL, runs GraphQL queries,
// and emits Theorem 2 reduction schemas from DIMACS CNF files.
//
// Usage:
//
//	pgschema fmt      <schema.graphql>
//	pgschema check    <schema.graphql>
//	pgschema validate <schema.graphql> <graph.json|nodes.csv,edges.csv> [-mode strong|weak|directives] [-max N] [-workers N] [-compile-stats] [-sched-stats]
//	pgschema sat      <schema.graphql> <TypeName> [-max-nodes N] [-witness FILE]
//	pgschema generate <schema.graphql> [-nodes N] [-seed N]
//	pgschema api      <schema.graphql> [-no-inverse] [-keep-directives]
//	pgschema export   <schema.graphql> [-format cypher|gsql] [-graph NAME]
//	pgschema query    <schema.graphql> <graph.json> <query-or-@file> [-op NAME]
//	pgschema serve    <schema.graphql> <graph.json> [-addr :8080] [-pprof] [-snapshot-dir DIR] [-tenant name:schema[:graph]]... [-mem-budget N]
//	pgschema snapshot save <graph> <out.pgsnap> | load|info|verify <file.pgsnap>
//	pgschema reduce   <formula.cnf>
//	pgschema stats    <graph.json>
//
// Graph arguments accept graph.json, nodes.csv,edges.csv pairs, and
// .pgsnap binary snapshots (memory-mapped; see the snapshot command).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pgschema/internal/apigen"
	"pgschema/internal/cnf"
	"pgschema/internal/ddl"
	"pgschema/internal/gen"
	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/printer"
	"pgschema/internal/query"
	"pgschema/internal/reduction"
	"pgschema/internal/sat"
	"pgschema/internal/schema"
	"pgschema/internal/server"
	"pgschema/internal/validate"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "fmt":
		err = cmdFmt(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "sat":
		err = cmdSat(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "api":
		err = cmdAPI(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "reduce":
		err = cmdReduce(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pgschema: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgschema:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `pgschema — GraphQL SDL schemas for Property Graphs

commands:
  fmt      <schema>                 parse and print the schema canonically
  check    <schema>                 verify schema consistency (Defs. 4.3-4.5)
  validate <schema> <graph>         check strong satisfaction (Defs. 5.1-5.3)
                                    <graph> is graph.json or nodes.csv,edges.csv
      -mode strong|weak|directives  satisfaction notion (default strong)
      -max N                        stop after N violations
      -workers N                    parallel validation workers (0 = auto)
      -compile-stats                print compiled-program statistics to stderr
      -sched-stats                  print scheduler telemetry to stderr
  sat      <schema> <Type>          decide object-type satisfiability (§6.2)
      -max-nodes N                  bound for the finite-model search
      -witness FILE                 write the witness graph as JSON
  generate <schema>                 emit a conformant graph as JSON
      -nodes N -seed N
  api      <schema>                 §3.6: extend into a GraphQL API schema
      -no-inverse                   omit bidirectional traversal fields
      -keep-directives              keep @required/@key/... annotations
  export   <schema>                 emit proprietary DDL (§2.1 systems)
      -format cypher|gsql           target dialect (default cypher)
      -graph NAME                   GSQL graph name
  query    <schema> <graph.json> <query-string-or-@file>
                                    run a GraphQL query over the graph
      -op NAME                      operation to execute
  serve    <schema> <graph>         GraphQL HTTP endpoint over the graph
                                    (hosted as tenant "default"; manage more
                                    via PUT/GET/DELETE /tenants/{name})
      -addr :8080                   listen address
      -pprof                        mount net/http/pprof under /debug/pprof/
      -snapshot-dir DIR             persist each tenant as DIR/<tenant>.pgsnap
                                    plus a write-ahead log DIR/<tenant>.pglog
                                    that each /graph/apply appends to; resume
                                    from them on restart (legacy
                                    DIR/graph.pgsnap still read)
      -tenant name:schema[:graph]   host an extra tenant (repeatable)
      -mem-budget N                 evict cold tenant snapshots past N bytes
  snapshot save <graph> <out.pgsnap>
                                    write the mmap-able binary snapshot
  snapshot load|info <file.pgsnap> [-verify]
                                    open a snapshot and report its contents
  snapshot verify <file.pgsnap>     checksum + deep-validate a snapshot
  reduce   <formula.cnf>            Theorem 2: DIMACS CNF -> schema SDL
  stats    <graph.json>             graph statistics

graph arguments: graph.json | nodes.csv,edges.csv | file.pgsnap
`)
}

func loadSchema(path string) (*schema.Schema, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := parser.Parse(string(src))
	if err != nil {
		return nil, err
	}
	return schema.Build(doc, schema.Options{})
}

// loadGraph reads a graph argument: a JSON file, a CSV pair given as
// "nodes.csv,edges.csv" (two paths joined by a comma), or a .pgsnap
// binary snapshot (memory-mapped — load time is independent of graph
// size). opts apply only to the .pgsnap path.
func loadGraph(path string, opts ...pg.OpenOption) (*pg.Graph, error) {
	if nodesPath, edgesPath, ok := strings.Cut(path, ","); ok {
		return loadGraphCSV(nodesPath, edgesPath)
	}
	if strings.HasSuffix(path, ".pgsnap") {
		return pg.OpenSnapshot(path, opts...)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pg.ReadJSON(f)
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// loadGraphCSV opens a nodes/edges CSV pair and loads it with the
// streaming columnar builder.
func loadGraphCSV(nodesPath, edgesPath string) (*pg.Graph, error) {
	nf, err := os.Open(nodesPath)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	return pg.ReadCSVStream(nf, ef)
}

func cmdFmt(args []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("fmt: want one schema file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	doc, err := parser.Parse(string(src))
	if err != nil {
		return err
	}
	fmt.Print(printer.Print(doc))
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("check: want one schema file")
	}
	s, err := loadSchema(fs.Arg(0))
	if err != nil {
		return err
	}
	objs := len(s.ObjectTypes())
	fmt.Printf("schema is consistent: %d object types, %d interfaces, %d unions\n",
		objs, len(s.InterfaceTypes()), len(s.UnionTypes()))
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	mode := fs.String("mode", "strong", "satisfaction notion")
	max := fs.Int("max", 0, "maximum violations to report (0 = all)")
	workers := fs.Int("workers", 0, "parallel workers (0 = autotune from graph size)")
	compileStats := fs.Bool("compile-stats", false, "print compiled-program statistics to stderr")
	schedStats := fs.Bool("sched-stats", false, "print scheduler telemetry (chunks, steals, per-worker busy) to stderr")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("validate: want schema and graph files")
	}
	s, err := loadSchema(fs.Arg(0))
	if err != nil {
		return err
	}
	opts := validate.Options{MaxViolations: *max, Workers: *workers, SchedStats: *schedStats}
	switch *mode {
	case "strong":
		opts.Mode = validate.Strong
	case "weak":
		opts.Mode = validate.Weak
	case "directives":
		opts.Mode = validate.Directives
	default:
		return fmt.Errorf("validate: unknown mode %q", *mode)
	}
	prog := validate.Compile(s)
	opts.Program = prog
	if *compileStats {
		st := prog.Stats()
		fmt.Fprintf(os.Stderr, "compiled program: %d types, %d interned names, %d field slots, %d obligations (%s)\n",
			st.Types, st.Names, st.Fields, st.Obligations, st.CompileTime)
	}
	var g *pg.Graph
	var res *validate.Result
	if nodesPath, edgesPath, ok := strings.Cut(fs.Arg(1), ","); ok {
		// CSV pair: fuse the load and the first validation pass — the
		// streamed columns are validated without a second materialization.
		nf, err := os.Open(nodesPath)
		if err != nil {
			return err
		}
		defer nf.Close()
		ef, err := os.Open(edgesPath)
		if err != nil {
			return err
		}
		defer ef.Close()
		res, g, err = validate.ValidateStream(context.Background(), s, nf, ef, opts)
		if err != nil {
			return err
		}
	} else {
		var err error
		if g, err = loadGraph(fs.Arg(1)); err != nil {
			return err
		}
		res = validate.Validate(s, g, opts)
	}
	if *compileStats {
		fmt.Fprintf(os.Stderr, "validation: %d elements, %d workers\n",
			g.NodeBound()+g.EdgeBound(), opts.EffectiveWorkers(g.NodeBound()+g.EdgeBound()))
	}
	if *schedStats {
		if st := res.Sched; st != nil {
			fmt.Fprintf(os.Stderr, "scheduler: %d workers, %d chunks, %d steals, wall %s, busy %s (efficiency %.2f), max chunk %s\n",
				st.Workers, st.Chunks, st.Steals, st.Wall, st.Busy, st.Efficiency(), st.MaxChunk)
			for i := range st.PerWorker {
				pw := &st.PerWorker[i]
				fmt.Fprintf(os.Stderr, "  worker %d: %d chunks (%d stolen), busy %s, max chunk %s\n",
					i, pw.Chunks, pw.Steals, pw.Busy, pw.MaxChunk)
			}
		} else {
			fmt.Fprintln(os.Stderr, "scheduler: no telemetry (engine did not run the chunk scheduler)")
		}
	}
	if res.OK() {
		fmt.Printf("graph (%d nodes, %d edges) satisfies the schema (%s)\n", g.NumNodes(), g.NumEdges(), *mode)
		return nil
	}
	for _, v := range res.Violations {
		fmt.Println(v)
	}
	suffix := ""
	if res.Truncated {
		suffix = " (truncated)"
	}
	return fmt.Errorf("%d violations%s", len(res.Violations), suffix)
}

func cmdSat(args []string) error {
	fs := flag.NewFlagSet("sat", flag.ExitOnError)
	maxNodes := fs.Int("max-nodes", 6, "finite-model search bound")
	witness := fs.String("witness", "", "write witness graph JSON to this file")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("sat: want schema file and type name")
	}
	s, err := loadSchema(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := sat.Check(s, fs.Arg(1), sat.Options{MaxGraphNodes: *maxNodes})
	fmt.Printf("%s: %s (decided by %s)\n", rep.Type, rep.Verdict, rep.Method)
	if rep.Detail != "" {
		fmt.Println("  " + rep.Detail)
	}
	if rep.Witness != nil && *witness != "" {
		f, err := os.Create(*witness)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.Witness.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("  witness written to %s\n", *witness)
	}
	if rep.Verdict == sat.Unsatisfiable {
		return fmt.Errorf("type %s is unsatisfiable", fs.Arg(1))
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	nodes := fs.Int("nodes", 10, "nodes per object type")
	seed := fs.Int64("seed", 0, "generation seed")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("generate: want one schema file")
	}
	s, err := loadSchema(fs.Arg(0))
	if err != nil {
		return err
	}
	g, err := gen.Conformant(s, gen.Config{Seed: *seed, NodesPerType: *nodes})
	if err != nil {
		return err
	}
	return g.WriteJSON(os.Stdout)
}

func cmdAPI(args []string) error {
	fs := flag.NewFlagSet("api", flag.ExitOnError)
	noInverse := fs.Bool("no-inverse", false, "omit bidirectional traversal fields")
	keep := fs.Bool("keep-directives", false, "keep constraint directives")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("api: want one schema file")
	}
	s, err := loadSchema(fs.Arg(0))
	if err != nil {
		return err
	}
	sdl, err := apigen.ExtendSDL(s, apigen.Options{
		NoInverseFields:          *noInverse,
		KeepConstraintDirectives: *keep,
	})
	if err != nil {
		return err
	}
	fmt.Print(sdl)
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	format := fs.String("format", "cypher", "target dialect: cypher or gsql")
	graph := fs.String("graph", "pg", "GSQL graph name")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("export: want one schema file")
	}
	s, err := loadSchema(fs.Arg(0))
	if err != nil {
		return err
	}
	switch *format {
	case "cypher":
		fmt.Print(ddl.Cypher(s))
	case "gsql":
		fmt.Print(ddl.GSQL(s, *graph))
	default:
		return fmt.Errorf("export: unknown format %q", *format)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	op := fs.String("op", "", "operation name (for multi-operation documents)")
	fs.Parse(args)
	if fs.NArg() != 3 {
		return fmt.Errorf("query: want schema file, graph file, and a query (or @file)")
	}
	s, err := loadSchema(fs.Arg(0))
	if err != nil {
		return err
	}
	g, err := loadGraph(fs.Arg(1))
	if err != nil {
		return err
	}
	src := fs.Arg(2)
	if len(src) > 1 && src[0] == '@' {
		raw, err := os.ReadFile(src[1:])
		if err != nil {
			return err
		}
		src = string(raw)
	}
	doc, err := query.Parse(src)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := query.Compile(s, doc).Execute(ctx, g, *op)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// repeatedFlag collects every occurrence of a repeatable string flag.
type repeatedFlag []string

func (f *repeatedFlag) String() string     { return strings.Join(*f, ", ") }
func (f *repeatedFlag) Set(v string) error { *f = append(*f, v); return nil }

// parseTenantSeed turns a -tenant spec "name:schema.graphql[:graph]"
// into a registry seed. When snapDir holds a snapshot persisted for the
// tenant by a previous run, it supersedes the graph argument — it
// carries every committed mutation and the epoch they advanced to.
func parseTenantSeed(spec, snapDir string) (server.TenantSeed, error) {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return server.TenantSeed{}, fmt.Errorf("serve: -tenant wants name:schema.graphql[:graph], got %q", spec)
	}
	seed := server.TenantSeed{Name: parts[0]}
	src, err := os.ReadFile(parts[1])
	if err != nil {
		return server.TenantSeed{}, fmt.Errorf("serve: tenant %q schema: %w", seed.Name, err)
	}
	seed.SDL = string(src)
	var g *pg.Graph
	if p := filepath.Join(snapDir, server.TenantSnapshotFile(seed.Name)); snapDir != "" && fileExists(p) {
		fmt.Printf("resuming tenant %q from persisted snapshot %s\n", seed.Name, p)
		g, _, err = server.LoadTenantGraph(p)
	} else if len(parts) == 3 {
		g, err = loadGraph(parts[2])
	}
	if err != nil {
		return server.TenantSeed{}, fmt.Errorf("serve: tenant %q graph: %w", seed.Name, err)
	}
	seed.Graph = g
	return seed, nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	reqTimeout := fs.Duration("timeout", 30*time.Second, "per-request handler timeout (0 disables)")
	maxInFlight := fs.Int("max-inflight", 1024, "concurrent request limit, excess sheds with 503 (0 = unlimited)")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "request body size limit in bytes")
	quiet := fs.Bool("quiet", false, "disable access logging")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	snapDir := fs.String("snapshot-dir", "", "persist each tenant as DIR/<name>.pgsnap plus a write-ahead log DIR/<name>.pglog that each /graph/apply appends to and fsyncs (compacted into a new snapshot when it reaches the snapshot's size); on startup, resume from those files if present")
	memBudget := fs.Int64("mem-budget", 0, "memory budget in bytes for resident tenant snapshots; the coldest persisted tenants are evicted past it and reload from -snapshot-dir on demand (0 = unlimited)")
	var tenants repeatedFlag
	fs.Var(&tenants, "tenant", "host an extra tenant, name:schema.graphql[:graph] (repeatable); graph is graph.json, nodes.csv,edges.csv, or file.pgsnap")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("serve: want schema and graph files")
	}
	s, err := loadSchema(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg := server.Config{
		RequestTimeout: *reqTimeout,
		MaxInFlight:    *maxInFlight,
		MaxBodyBytes:   *maxBody,
		EnablePprof:    *pprofFlag,
		SnapshotDir:    *snapDir,
	}
	if !*quiet {
		cfg.AccessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	graphArg := fs.Arg(1)
	resumed := false
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return err
		}
		// Warm restart: a snapshot and log persisted by a previous run
		// supersede the graph argument — they carry every committed
		// mutation and the epoch they advanced to. The pre-tenancy fixed
		// file name is still honored as the default tenant's snapshot.
		persisted := filepath.Join(*snapDir, server.TenantSnapshotFile(server.DefaultTenant))
		if !fileExists(persisted) {
			persisted = filepath.Join(*snapDir, server.SnapshotFileName)
		}
		if fileExists(persisted) {
			fmt.Printf("resuming from persisted snapshot %s\n", persisted)
			graphArg, resumed = persisted, true
		}
	}
	loadStart := time.Now()
	defaultSeed := server.TenantSeed{Name: server.DefaultTenant, Schema: s}
	if nodesPath, edgesPath, ok := strings.Cut(graphArg, ","); ok {
		// CSV pair: stream the graph in and validate it on ingest; the
		// full strong run seeds the /revalidate cache before serving.
		nf, err := os.Open(nodesPath)
		if err != nil {
			return err
		}
		defer nf.Close()
		ef, err := os.Open(edgesPath)
		if err != nil {
			return err
		}
		defer ef.Close()
		res, g, err := validate.ValidateStream(context.Background(), s, nf, ef,
			validate.Options{Program: validate.Compile(s)})
		if err != nil {
			return fmt.Errorf("loading graph CSV: %w", err)
		}
		defaultSeed.Graph = g
		if !res.Incomplete {
			defaultSeed.Result = res // uncapped strong run: /revalidate can start from it
		}
		status := "satisfies the schema"
		if !res.OK() {
			status = fmt.Sprintf("has %d violations", len(res.Violations))
		}
		fmt.Printf("streamed graph: %d nodes, %d edges in %s; ingest validation: graph %s\n",
			g.NumNodes(), g.NumEdges(), time.Since(loadStart).Round(time.Millisecond), status)
	} else {
		var g *pg.Graph
		if resumed {
			g, _, err = server.LoadTenantGraph(graphArg)
		} else {
			g, err = loadGraph(graphArg)
		}
		if err != nil {
			return err
		}
		elements := g.NodeBound() + g.EdgeBound()
		fmt.Printf("loaded graph: %d nodes, %d edges in %s (validation autotune: %d workers)\n",
			g.NumNodes(), g.NumEdges(), time.Since(loadStart).Round(time.Millisecond),
			validate.Options{}.EffectiveWorkers(elements))
		defaultSeed.Graph = g
	}
	seeds := []server.TenantSeed{defaultSeed}
	for _, spec := range tenants {
		seed, err := parseTenantSeed(spec, *snapDir)
		if err != nil {
			return err
		}
		seeds = append(seeds, seed)
	}
	h, err := server.NewRegistry(server.RegistryConfig{
		Config:       cfg,
		MemoryBudget: *memBudget,
		Seeds:        seeds,
	})
	if err != nil {
		return err
	}

	// WriteTimeout must outlast the handler timeout, or the connection
	// dies before the 504 is written.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           h.Mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       1 * time.Minute,
		WriteTimeout:      *reqTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if *reqTimeout <= 0 {
		srv.WriteTimeout = 0
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %d tenants on %s (/tenants/{name}/..., legacy aliases POST /graphql /validate /revalidate /graph/apply, GET /schema /metrics /healthz)\n",
		len(h.Registry().Names()), ln.Addr())
	return serveUntilSignal(srv, ln)
}

// serveUntilSignal runs the server until it fails or a SIGINT/SIGTERM
// arrives, then drains in-flight requests via graceful Shutdown (bounded
// to 15s) before returning.
func serveUntilSignal(srv *http.Server, ln net.Listener) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Fprintln(os.Stderr, "signal received, draining in-flight requests ...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintln(os.Stderr, "server stopped")
		return nil
	}
}

// cmdSnapshot is the .pgsnap toolbox: save converts any loadable graph
// into the mmap-able binary snapshot format, load/info open one and
// report what is inside, verify checksums every section and
// deep-validates the structure.
func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("snapshot: want a subcommand: save, load, info, or verify")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "save":
		fs := flag.NewFlagSet("snapshot save", flag.ExitOnError)
		fs.Parse(rest)
		if fs.NArg() != 2 {
			return fmt.Errorf("snapshot save: want <graph.json|nodes.csv,edges.csv> <out.pgsnap>")
		}
		g, err := loadGraph(fs.Arg(0))
		if err != nil {
			return err
		}
		start := time.Now()
		err = pg.WriteFileAtomic(fs.Arg(1), func(w io.Writer) error {
			return pg.WriteSnapshot(w, g.Snapshot())
		})
		if err != nil {
			return err
		}
		st, err := os.Stat(fs.Arg(1))
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d nodes, %d edges, epoch %d, %d bytes in %s\n",
			fs.Arg(1), g.NumNodes(), g.NumEdges(), g.Epoch(), st.Size(),
			time.Since(start).Round(time.Microsecond))
		return nil
	case "load", "info":
		fs := flag.NewFlagSet("snapshot "+sub, flag.ExitOnError)
		verify := fs.Bool("verify", false, "checksum all sections and deep-validate the structure")
		fs.Parse(rest)
		if fs.NArg() != 1 {
			return fmt.Errorf("snapshot %s: want one .pgsnap file", sub)
		}
		var opts []pg.OpenOption
		if *verify {
			opts = append(opts, pg.Verify())
		}
		start := time.Now()
		g, err := pg.OpenSnapshot(fs.Arg(0), opts...)
		if err != nil {
			return err
		}
		defer g.Close()
		elapsed := time.Since(start)
		st, err := os.Stat(fs.Arg(0))
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d nodes, %d edges, epoch %d, %d labels, %d bytes, opened in %s\n",
			fs.Arg(0), g.NumNodes(), g.NumEdges(), g.Epoch(), len(g.Labels()), st.Size(),
			elapsed.Round(time.Microsecond))
		return nil
	case "verify":
		fs := flag.NewFlagSet("snapshot verify", flag.ExitOnError)
		fs.Parse(rest)
		if fs.NArg() != 1 {
			return fmt.Errorf("snapshot verify: want one .pgsnap file")
		}
		start := time.Now()
		g, err := pg.OpenSnapshot(fs.Arg(0), pg.Verify())
		if err != nil {
			return fmt.Errorf("snapshot verify: %w", err)
		}
		defer g.Close()
		fmt.Printf("%s: OK (%d nodes, %d edges, epoch %d, verified in %s)\n",
			fs.Arg(0), g.NumNodes(), g.NumEdges(), g.Epoch(),
			time.Since(start).Round(time.Microsecond))
		return nil
	default:
		return fmt.Errorf("snapshot: unknown subcommand %q (want save, load, info, or verify)", sub)
	}
}

func cmdReduce(args []string) error {
	fs := flag.NewFlagSet("reduce", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("reduce: want one DIMACS CNF file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	formula, err := cnf.ParseDIMACS(f)
	if err != nil {
		return err
	}
	red, err := reduction.FromCNF(formula)
	if err != nil {
		return err
	}
	fmt.Print(red.SDL)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stats: want one graph file")
	}
	g, err := loadGraph(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(g.ComputeStats())
	return nil
}
