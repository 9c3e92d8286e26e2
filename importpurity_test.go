package abyss1000_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPublicSurfaceImportPurity enforces the embedding contract: the
// commands, the examples, the public workloads, the query operator layer
// and the serve front door are clients of the public abyss (and bench)
// packages only. If one of
// them imports abyss1000/internal/..., the public API has a hole — fix
// the API, not the import list. (The bench harness itself lives outside
// this rule: it is part of the engine distribution and drives engine
// internals the public API deliberately does not expose, such as
// ablation allocators. cmd/internal is the commands' own shared helper
// space, not the engine's internal tree, so it stays under the rule.)
//
// One narrower rule rides the same walk: serve/client speaks only the
// binary protocol, so it imports neither net/http nor encoding/json.
func TestPublicSurfaceImportPurity(t *testing.T) {
	internal := func(p string) bool {
		return strings.HasPrefix(p, "abyss1000/internal/") || p == "abyss1000/internal"
	}
	rules := []struct {
		dir    string
		banned func(imp string) bool
		why    string
	}{
		{"cmd", internal, "must use only the public abyss API"},
		{"examples", internal, "must use only the public abyss API"},
		{"workloads", internal, "must use only the public abyss API"},
		{"serve", internal, "must use only the public abyss API"},
		{"query", internal, "must use only the public abyss API"},
		{"serve/client", func(p string) bool { return p == "net/http" || p == "encoding/json" },
			"is a binary-protocol client only"},
	}
	fset := token.NewFileSet()
	for _, rule := range rules {
		err := filepath.WalkDir(rule.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				if rule.banned(p) {
					t.Errorf("%s imports %s: %s %s", path, p, rule.dir, rule.why)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", rule.dir, err)
		}
	}
}
