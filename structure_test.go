package abyss1000_test

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The engine's design rules, checked over the syntax tree of the module's
// non-test Go (the nested benchmark module aside). Each rule says what the
// code is — one worker loop, one write set, one latch primitive — rather
// than which names it may not use, so a copy under a new name fails it
// like the original would.

// decl is one top-level declaration: a function or method, or a type.
// dir is its package directory, slash-separated, relative to the root.
type decl struct {
	dir  string
	fn   *ast.FuncDecl
	typ  *ast.TypeSpec
	file *ast.File
}

// name is "Name" for a function or type and "Recv.Name" for a method.
func (d decl) name() string {
	if d.typ != nil {
		return d.typ.Name.Name
	}
	if d.fn.Recv == nil {
		return d.fn.Name.Name
	}
	recv := d.fn.Recv.List[0].Type
	if s, ok := recv.(*ast.StarExpr); ok {
		recv = s.X
	}
	return types.ExprString(recv) + "." + d.fn.Name.Name
}

// in reports whether the declaration's package is dir or below it.
func (d decl) in(dir string) bool { return d.dir == dir || strings.HasPrefix(d.dir, dir+"/") }

// fields lists a struct type's field names and types, nil for other decls;
// an embedded field has an empty name.
func (d decl) fields() (names, typs []string) {
	if d.typ == nil {
		return nil, nil
	}
	st, ok := d.typ.Type.(*ast.StructType)
	if !ok {
		return nil, nil
	}
	for _, f := range st.Fields.List {
		for i := 0; i < max(1, len(f.Names)); i++ {
			names = append(names, "")
			if len(f.Names) > 0 {
				names[len(names)-1] = f.Names[i].Name
			}
			typs = append(typs, types.ExprString(f.Type))
		}
	}
	return names, typs
}

// parseModule parses the module's non-test Go into its declarations, and
// lists every Go file under the root, tracked or not, tests and the
// benchmark module included, that gofmt would change. Hidden and testdata
// directories are left out of both.
func parseModule(t *testing.T) (fset *token.FileSet, decls []decl, unformatted []string) {
	fset = token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			unformatted = append(unformatted, path)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") || dir == "benchmark" || strings.HasPrefix(dir, "benchmark/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls = append(decls, decl{dir: dir, fn: d, file: f})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						decls = append(decls, decl{dir: dir, typ: ts, file: f})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, decls, unformatted
}

// callee is the name a call calls: f(…), x.f(…) and x.y.f(…) all call "f".
func callee(c *ast.CallExpr) string {
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// calls calls fn for every call expression under n.
func calls(n ast.Node, fn func(c *ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			fn(c)
		}
		return true
	})
}

// files lists, once each, the files of the declarations that keep says.
func files(decls []decl, keep func(decl) bool) []*ast.File {
	var out []*ast.File
	for _, d := range decls {
		if keep(d) && !slices.Contains(out, d.file) {
			out = append(out, d.file)
		}
	}
	return out
}

// sortedEqual reports whether got, sorted, equals want.
func sortedEqual(got, want []string) bool {
	slices.Sort(got)
	return slices.Equal(got, want)
}

func TestStructure(t *testing.T) {
	fset, decls, unformatted := parseModule(t)
	at := func(n ast.Node) string { return fset.Position(n.Pos()).String() }

	t.Run("Gofmt", func(t *testing.T) {
		for _, path := range unformatted {
			t.Errorf("%s is not as gofmt leaves it", path)
		}
	})

	// The simulated cores are coroutines of Run's caller, resumed by one
	// loop, so exactly one runs at a time by construction and the engine
	// needs no goroutine, channel, select or sync primitive.
	t.Run("SimulatorEngineIsSingleThreaded", func(t *testing.T) {
		engine := files(decls, func(d decl) bool { return d.dir == "internal/sim" })
		if len(engine) == 0 {
			t.Fatal("internal/sim has no source")
		}
		for _, f := range engine {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ImportSpec:
					if p, _ := strconv.Unquote(n.Path.Value); p == "sync" || p == "sync/atomic" {
						t.Errorf("%s: internal/sim imports %s", at(n), p)
					}
				case *ast.GoStmt, *ast.ChanType, *ast.SelectStmt, *ast.SendStmt:
					t.Errorf("%s: internal/sim uses a goroutine or a channel", at(n))
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						t.Errorf("%s: internal/sim receives from a channel", at(n))
					}
				}
				return true
			})
		}
	})

	// The closed loop, the open loop and served requests are sources
	// feeding Worker.loop, the one caller of runTxn; the retry loop and
	// ExecOnce share one attempt body. A second worker body would be a
	// second caller of one of them.
	t.Run("EngineHasOneWorkerLoop", func(t *testing.T) {
		callers := map[string][]string{}
		for _, d := range decls {
			if d.dir == "internal/core" && d.fn != nil {
				calls(d.fn, func(c *ast.CallExpr) { callers[callee(c)] = append(callers[callee(c)], d.name()) })
			}
		}
		for fn, want := range map[string][]string{
			"runTxn":   {"Worker.loop"},
			"attempt":  {"Worker.ExecOnce", "Worker.runTxn"},
			"ExecOnce": nil,
		} {
			if got := callers[fn]; !sortedEqual(got, want) {
				t.Errorf("internal/core calls %s from %v, want from %v only", fn, got, want)
			}
		}
	})

	// TxnCtx holds every slot an attempt writes, with its buffer and undo
	// image, as core.WriteEntry. A scheme's record that names a row by
	// (table, slot) is a read record or a retire entry, never a second
	// write set, and a scheme builds on the engine's packages alone, with
	// no helper package shared between schemes.
	t.Run("TransactionsHaveOneWriteSet", func(t *testing.T) {
		var records []string
		engine := []string{"core", "costs", "rt", "slot", "stats", "storage", "tsalloc", "waitgraph"}
		for _, d := range decls {
			if !d.in("internal/cc") {
				continue
			}
			if _, typs := d.fields(); slices.Contains(typs, "*storage.Table") {
				records = append(records, d.dir[len("internal/cc/"):]+"."+d.name())
			}
		}
		for _, f := range files(decls, func(d decl) bool { return d.in("internal/cc") }) {
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if pkg, ok := strings.CutPrefix(p, "abyss1000/internal/"); strings.HasPrefix(p, "abyss1000/") && !(ok && slices.Contains(engine, pkg)) {
					t.Errorf("%s: a scheme imports %s; schemes build on %v only", at(imp), p, engine)
				}
			}
		}
		if want := []string{"mvcc.tupleRef", "occ.readRec"}; !sortedEqual(records, want) {
			t.Errorf("internal/cc structs holding a *storage.Table: %v, want %v (writes belong in core.WriteEntry)", records, want)
		}
	})

	// The runtime contract has one latch and one counter primitive, the
	// slabs rt.Latches and rt.Counters; a lone latch or counter is a slab
	// of one. Package rt declares nothing else, and only the three
	// constructors make them.
	t.Run("RuntimeHasOneLatchAndOneCounterPrimitive", func(t *testing.T) {
		var rtTypes []string
		makers := []string{"NewLatches", "NewCounters", "NewHardwareCounter"}
		check := func(n ast.Node, name string, ft *ast.FuncType) {
			for _, r := range ft.Results.List {
				if s := strings.TrimPrefix(types.ExprString(r.Type), "rt."); (s == "Latches" || s == "Counters") && !slices.Contains(makers, name) {
					t.Errorf("%s: %s returns rt.%s; only %v make latches and counters", at(n), name, s, makers)
				}
			}
		}
		for _, d := range decls {
			if d.typ != nil && d.dir == "internal/rt" {
				rtTypes = append(rtTypes, d.name())
			}
			var n ast.Node = d.typ
			if d.fn != nil {
				n = d.fn
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Type.Results != nil {
					check(fd, fd.Name.Name, fd.Type)
				}
				if f, ok := n.(*ast.Field); ok && len(f.Names) > 0 {
					if ft, ok := f.Type.(*ast.FuncType); ok && ft.Results != nil {
						check(f, f.Names[0].Name, ft) // an interface method
					}
				}
				return true
			})
		}
		if want := []string{"Counters", "Latches", "Proc", "Runtime"}; !sortedEqual(rtTypes, want) {
			t.Errorf("internal/rt declares %v, want %v", rtTypes, want)
		}
	})

	// core.Mix (abyss.Mix) is the one weighted draw over transaction types
	// and the one catalogue of procedures: every procedure workload embeds
	// it and overrides none of its methods. An invocation names a procedure
	// and carries no arguments.
	t.Run("StoredProceduresHaveOneMechanism", func(t *testing.T) {
		var mixMethods []string
		embedders := map[string]bool{} // "dir.Type" of every struct embedding a Mix
		methods := map[string][]string{}
		for _, d := range decls {
			if d.fn != nil && d.fn.Recv != nil {
				recv, name, _ := strings.Cut(d.name(), ".")
				if d.dir == "internal/core" && recv == "Mix" {
					mixMethods = append(mixMethods, name)
				}
				methods[d.dir+"."+recv] = append(methods[d.dir+"."+recv], name)
			}
			names, typs := d.fields()
			for i, typ := range typs {
				if typ = strings.TrimPrefix(typ, "*"); names[i] == "" && (typ == "core.Mix" || typ == "abyss.Mix") {
					embedders[d.dir+"."+d.name()] = true
				}
				if (d.name() == "Invocation" || d.name() == "InvokeRequest") && (strings.HasPrefix(typ, "[") || strings.HasPrefix(typ, "map[")) {
					t.Errorf("%s: %s.%s is a %s; an invocation names a procedure and carries no arguments", at(d.typ), d.name(), names[i], typ)
				}
			}
		}
		if len(mixMethods) == 0 {
			t.Fatal("internal/core declares no methods on Mix")
		}
		for _, wl := range []string{"internal/workload/tpcc", "workloads/smallbank", "workloads/tatp", "workloads/chaos"} {
			if !embedders[wl+".Workload"] {
				t.Errorf("%s.Workload does not embed the engine's Mix", wl)
			}
		}
		for typ := range embedders {
			for _, m := range methods[typ] {
				if slices.Contains(mixMethods, m) {
					t.Errorf("%s declares its own %s; a procedure workload draws and names its transactions through its embedded Mix", typ, m)
				}
			}
		}
	})

	// H-STORE's Begin sorts and dedups the partitions a transaction
	// declares, so a workload declares them in any order and needs no
	// partition-list helper: only Partitions methods take or return []int.
	t.Run("HSTOREOwnsItsPartitionOrder", func(t *testing.T) {
		for _, d := range decls {
			if d.fn == nil || !d.in("internal/workload") && !d.in("workloads") || d.fn.Recv != nil && d.fn.Name.Name == "Partitions" {
				continue
			}
			ast.Inspect(d.fn.Type, func(n ast.Node) bool {
				if f, ok := n.(*ast.Field); ok && types.ExprString(f.Type) == "[]int" {
					t.Errorf("%s: %s takes or returns []int; a workload declares its partitions in any order and H-STORE orders them", at(d.fn), d.name())
				}
				return true
			})
		}
	})

	// A run counts once: a worker records each outcome into a core.Tally,
	// the sampler is the only place workers' tallies meet, and the Result
	// is the merge of its intervals. Result and Sample embed the Tally
	// and a session's admission counts are one, so Tally alone declares
	// commits and aborts (TxnStats being a type's subset of them) and
	// offered and shed; another type declaring either pair would be a
	// second tally.
	t.Run("ARunCountsOnce", func(t *testing.T) {
		for _, rule := range []struct {
			pair [2]string
			want []string
		}{
			{[2]string{"Commits", "Aborts"}, []string{"internal/core.Tally", "internal/core.TxnStats"}},
			{[2]string{"Offered", "Shed"}, []string{"internal/core.Tally"}},
		} {
			var got []string
			for _, d := range decls {
				if names, _ := d.fields(); slices.Contains(names, rule.pair[0]) && slices.Contains(names, rule.pair[1]) {
					got = append(got, d.dir+"."+d.name())
				}
			}
			if !sortedEqual(got, rule.want) {
				t.Errorf("structs with %s and %s fields: %v, want %v", rule.pair[0], rule.pair[1], got, rule.want)
			}
		}
	})

	// A hash probe, a B+tree lookup and a range scan are read sections:
	// they take their latch with AcquireRead, never with Acquire, which
	// would move the latch's line.
	t.Run("IndexReadsAreReadSections", func(t *testing.T) {
		for _, read := range []string{"Hash.Lookup", "Ordered.Lookup", "Ordered.RangeScanLimit"} {
			i := slices.IndexFunc(decls, func(d decl) bool { return d.dir == "internal/index" && d.fn != nil && d.name() == read })
			if i < 0 {
				t.Errorf("internal/index declares no %s", read)
				continue
			}
			sections := 0
			calls(decls[i].fn, func(c *ast.CallExpr) {
				switch callee(c) {
				case "AcquireRead":
					sections++
				case "Acquire":
					t.Errorf("%s: %s calls Acquire; an index read takes its latch with AcquireRead", at(c), read)
				}
			})
			if sections == 0 {
				t.Errorf("%s takes no read section (AcquireRead)", read)
			}
		}
	})

	// Every structure indexed by table slot is an internal/slot array laid
	// out like the table's rows (slot.Make(t.Layout())): reserved capacity
	// is free until rows land in it, so no make is sized by a Capacity()
	// call.
	t.Run("NoSliceIsSizedByCapacity", func(t *testing.T) {
		for _, d := range decls {
			if d.fn == nil {
				continue
			}
			calls(d.fn, func(c *ast.CallExpr) {
				if id, ok := c.Fun.(*ast.Ident); !ok || id.Name != "make" {
					return
				}
				for _, size := range c.Args[1:] {
					calls(size, func(sc *ast.CallExpr) {
						if callee(sc) == "Capacity" {
							t.Errorf("%s: %s sizes a make by Capacity(); size per-slot structures with slot.Make(t.Layout())", at(c), d.name())
						}
					})
				}
			})
		}
	})
}
