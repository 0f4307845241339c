package crackdb

import (
	"reflect"
	"testing"
)

// TestStoreSurface caps the exported surface: *Store grows only by a
// method some program calls. Raising a cap needs that caller. The 34th,
// InsertColumns, is the shard router's columnar append.
func TestStoreSurface(t *testing.T) {
	for _, tc := range []struct {
		typ reflect.Type
		max int
	}{
		{reflect.TypeFor[*Store](), 34},
	} {
		if n := tc.typ.NumMethod(); n > tc.max {
			names := make([]string, n)
			for i := range names {
				names[i] = tc.typ.Method(i).Name
			}
			t.Errorf("%v exports %d methods, cap is %d: %v", tc.typ, n, tc.max, names)
		}
	}
}
