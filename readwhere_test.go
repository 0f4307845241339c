package crackdb

import (
	"reflect"
	"slices"
	"testing"

	"crackdb/internal/core"
)

// A declined read is what the shard router builds on: it offers every
// target shard a conjunction read-only first and fans out only the
// shards that decline. So a decline must leave a store exactly as it
// was — no cracker column created, no pending update folded, no cut
// cracked, no counter moved, no select observer told — and the full path
// afterwards must answer, and reorganize, as if the offer never happened.
func TestReadWhereDeclineChangesNothing(t *testing.T) {
	const n = 2000
	span := func(lo, hi int64) []Cond {
		return []Cond{{Col: "c0", Op: ">=", Val: lo}, {Col: "c0", Op: "<", Val: hi}}
	}
	converge := func(t *testing.T, s *Store) {
		if _, err := s.CountWhere("t", span(100, 500)...); err != nil {
			t.Fatal(err)
		}
	}
	postures := []struct {
		name  string
		setup func(t *testing.T, s *Store)
		conds []Cond
	}{
		{"uncracked column", func(*testing.T, *Store) {}, span(100, 500)},
		{"pending inserts", func(t *testing.T, s *Store) {
			converge(t, s)
			if err := s.InsertRows("t", [][]int64{{300, 1, 1}, {n + 5, 2, 2}}); err != nil {
				t.Fatal(err)
			}
		}, span(100, 500)},
		{"pending deletes", func(t *testing.T, s *Store) {
			converge(t, s)
			if _, err := s.Delete("t", Cond{Col: "c1", Op: "<", Val: 50}); err != nil {
				t.Fatal(err)
			}
		}, span(100, 500)},
		{"cuts not registered", converge, span(150, 450)},
		{"cuts not registered, residual on c1", converge,
			append(span(150, 450), Cond{Col: "c1", Op: ">", Val: 1000})},
	}
	for _, p := range postures {
		for _, count := range []bool{true, false} {
			name := p.name + "/select"
			if count {
				name = p.name + "/count"
			}
			t.Run(name, func(t *testing.T) {
				s, observed := declineStore(t, n)
				twin, twinObserved := declineStore(t, n)
				p.setup(t, s)
				p.setup(t, twin)
				before, obsBefore := declineState(t, s), *observed

				if _, res, ok, err := s.ReadWhere("t", count, p.conds...); err != nil || ok || res != nil {
					t.Fatalf("ReadWhere = (ok %v, res %v, %v), want a decline", ok, res != nil, err)
				}
				if after := declineState(t, s); !reflect.DeepEqual(after, before) {
					t.Fatalf("the decline changed the store:\nbefore %+v\nafter  %+v", before, after)
				}
				if *observed != obsBefore {
					t.Fatalf("the decline told the select observer %d times", *observed-obsBefore)
				}

				// The full path answers and reorganizes as on a twin that
				// was never offered the read.
				got, want := declineAnswer(t, s, count, p.conds), declineAnswer(t, twin, count, p.conds)
				if !slices.Equal(got, want) {
					t.Fatalf("after the decline the full path answered %v, the twin %v", got, want)
				}
				if a, b := declineState(t, s), declineState(t, twin); !reflect.DeepEqual(a, b) {
					t.Fatalf("after the decline the store is not its twin:\n%+v\n%+v", a, b)
				}
				if *observed != *twinObserved {
					t.Fatalf("select observer told %d times, the twin's %d", *observed, *twinObserved)
				}

				// Now converged: the same offer answers, as the full path did.
				n, res, ok, err := s.ReadWhere("t", count, p.conds...)
				if err != nil || !ok {
					t.Fatalf("converged ReadWhere = (ok %v, %v), want an answer", ok, err)
				}
				if !count {
					rows, err := res.Rows("c0", "c1")
					if err != nil {
						t.Fatal(err)
					}
					core.SortRows(rows)
					if n != len(rows) || !slices.Equal(flatten(rows), want[1:]) {
						t.Fatalf("converged ReadWhere rows %v, want %v", rows, want[1:])
					}
				}
				if n != int(want[0]) {
					t.Fatalf("converged ReadWhere = %d, want %d", n, want[0])
				}
			})
		}
	}
}

// declineStore is a 3-column tapestry whose select observer counts.
func declineStore(t *testing.T, n int) (*Store, *int) {
	t.Helper()
	s := New()
	if err := s.LoadTapestry("t", n, 3, 1); err != nil {
		t.Fatal(err)
	}
	observed := new(int)
	s.tables["t"].SetSelectObserver(func(string, core.Range) { *observed++ })
	return s, observed
}

// declineState is everything a read may change: which columns have
// cracker state, each one's counters and pieces (a fold moves
// Consolidations, a crack Cracks and Pieces, an answer Queries), and the
// cuts themselves.
func declineState(t *testing.T, s *Store) map[string]any {
	t.Helper()
	stats, err := s.CrackedColumnStats("t")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{"stats": stats}
	for col := range stats {
		c, _ := s.tables["t"].Column(col)
		out[col+" cuts"] = c.Index().Cuts()
		out[col+" len"] = c.Len()
	}
	return out
}

// declineAnswer answers conds on the full path: the count, then for a
// selection its (c0, c1) rows in canonical order, flattened.
func declineAnswer(t *testing.T, s *Store, count bool, conds []Cond) []int64 {
	t.Helper()
	if count {
		n, err := s.CountWhere("t", conds...)
		if err != nil {
			t.Fatal(err)
		}
		return []int64{int64(n)}
	}
	res, err := s.SelectWhere("t", conds...)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows("c0", "c1")
	if err != nil {
		t.Fatal(err)
	}
	core.SortRows(rows)
	return append([]int64{int64(len(rows))}, flatten(rows)...)
}

func flatten(rows [][]int64) []int64 {
	var out []int64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// TestReadBatchDeclineChangesNothing is TestReadWhereDeclineChangesNothing
// for the batch offer the router makes each shard's sub-batch: all or
// nothing. A batch whose ranges the index resolves but one must decline
// having answered none of them, and every decline must leave the store
// as it was, so that CountBatch afterwards answers and reorganizes as on
// a twin never offered the batch.
func TestReadBatchDeclineChangesNothing(t *testing.T) {
	const n = 2000
	converged := []Range{{Low: 100, High: 499}, {Low: 100, High: 299}, {Low: 300, High: 499}, {Low: 5, High: 4}}
	converge := func(t *testing.T, s *Store) {
		if _, err := s.CountBatch("t", "c0", converged); err != nil {
			t.Fatal(err)
		}
	}
	postures := []struct {
		name   string
		setup  func(t *testing.T, s *Store)
		ranges []Range
	}{
		{"no cracker column", func(*testing.T, *Store) {}, converged},
		{"one cut missing", converge, append(slices.Clone(converged), Range{Low: 300, High: 449})},
		{"pending inserts", func(t *testing.T, s *Store) {
			converge(t, s)
			if err := s.InsertRows("t", [][]int64{{300, 1, 1}, {n + 5, 2, 2}}); err != nil {
				t.Fatal(err)
			}
		}, converged},
		{"pending deletes", func(t *testing.T, s *Store) {
			converge(t, s)
			if _, err := s.Delete("t", Cond{Col: "c1", Op: "<", Val: 50}); err != nil {
				t.Fatal(err)
			}
		}, converged},
	}
	for _, p := range postures {
		t.Run(p.name, func(t *testing.T) {
			s, observed := declineStore(t, n)
			twin, twinObserved := declineStore(t, n)
			p.setup(t, s)
			p.setup(t, twin)
			before, obsBefore := declineState(t, s), *observed

			if ok, err := s.ReadBatch("t", "c0", p.ranges, make([]int, len(p.ranges))); err != nil || ok {
				t.Fatalf("ReadBatch = (ok %v, %v), want a decline", ok, err)
			}
			if after := declineState(t, s); !reflect.DeepEqual(after, before) {
				t.Fatalf("the decline changed the store:\nbefore %+v\nafter  %+v", before, after)
			}
			if *observed != obsBefore {
				t.Fatalf("the decline told the select observer %d times", *observed-obsBefore)
			}

			got, err := s.CountBatch("t", "c0", p.ranges)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.CountBatch("t", "c0", p.ranges)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("after the decline CountBatch answered %v, the twin %v", got, want)
			}
			if a, b := declineState(t, s), declineState(t, twin); !reflect.DeepEqual(a, b) {
				t.Fatalf("after the decline the store is not its twin:\n%+v\n%+v", a, b)
			}
			if *observed != *twinObserved {
				t.Fatalf("select observer told %d times, the twin's %d", *observed, *twinObserved)
			}

			// Now converged: the same offer answers whole, as CountBatch
			// does, and counts each range once.
			before, obsBefore = declineState(t, s), *observed
			counts := make([]int, len(p.ranges))
			ok, err := s.ReadBatch("t", "c0", p.ranges, counts)
			if err != nil || !ok || !slices.Equal(counts, want) {
				t.Fatalf("converged ReadBatch = (%v, ok %v, %v), want %v", counts, ok, err, want)
			}
			if d := *observed - obsBefore; d != len(p.ranges) {
				t.Fatalf("the answered offer told the select observer %d times, want %d", d, len(p.ranges))
			}
			stats := func(state map[string]any) ColumnStats { return state["stats"].(map[string]ColumnStats)["c0"] }
			if b, a := stats(before), stats(declineState(t, s)); a.Queries-b.Queries != len(p.ranges) || a.Cracks != b.Cracks {
				t.Fatalf("the answered offer moved queries %d → %d and cracks %d → %d", b.Queries, a.Queries, b.Cracks, a.Cracks)
			}
		})
	}
}
