package shard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strings"
	"testing"

	"crackdb/internal/shard"
)

// TestRouterSurface caps the router's exported method set. The router
// routes, merges and forwards; anything that only forwards belongs on
// what it forwards to (Shard(i), WAL()). The cap is below the wrapped
// store's own count, 35, which was ROADMAP's target. A new method must
// displace one, not raise the cap.
func TestRouterSurface(t *testing.T) {
	const maxExported = 34
	typ := reflect.TypeOf(&shard.Store{})
	if n := typ.NumMethod(); n > maxExported {
		names := make([]string, n)
		for i := range names {
			names[i] = typ.Method(i).Name
		}
		t.Fatalf("*shard.Store exports %d methods, cap is %d: %v", n, maxExported, names)
	}
}

// TestOneGoStatement keeps the router's concurrency in one place: gather
// is the only code in the package that starts a goroutine, so the rule
// deciding how many a fan-out gets — helpers only beside shards that must
// reorganize, at most GOMAXPROCS−1 — cannot be bypassed by a fan-out of
// its own.
func TestOneGoStatement(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var sites []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				sites = append(sites, fset.Position(g.Pos()).String())
			}
			return true
		})
	}
	if len(sites) != 1 {
		t.Fatalf("internal/shard has %d go statements, want 1 (in gather): %v", len(sites), sites)
	}
}
