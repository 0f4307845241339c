package shard_test

import (
	"reflect"
	"testing"

	"crackdb/internal/shard"
)

// TestRouterSurface caps the router's exported method set. The router
// routes, merges and forwards; anything that only forwards belongs on
// what it forwards to (Shard(i), WAL()). ROADMAP's target is the wrapped
// store's own count, 36 — CHANGES.md (PR 13) names what is left above
// it. A new method must displace one, not raise the cap.
func TestRouterSurface(t *testing.T) {
	const maxExported = 38
	typ := reflect.TypeOf(&shard.Store{})
	if n := typ.NumMethod(); n > maxExported {
		names := make([]string, n)
		for i := range names {
			names[i] = typ.Method(i).Name
		}
		t.Fatalf("*shard.Store exports %d methods, cap is %d: %v", n, maxExported, names)
	}
}
