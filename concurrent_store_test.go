package crackdb

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestStoreConcurrentTables drives queries, projections, inserts,
// deletes, image writes and a table that is dropped and re-created
// against one store from many goroutines: table resolution happens under
// the store's read lock, so cross-table traffic must neither race (run
// with -race) nor corrupt per-table answers — and the sideways budget,
// held at one payload vector, counts the tables the store holds while
// they come and go.
func TestStoreConcurrentTables(t *testing.T) {
	const (
		tables     = 4
		rows       = 5_000
		goroutines = 8
		iters      = 200
	)
	s := New()
	s.SetSidewaysBudget(1)
	for i := 0; i < tables; i++ {
		if err := s.LoadTapestry(fmt.Sprintf("t%d", i), rows, 2, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.LoadTapestry("churn", 500, 2, 0); err != nil {
		t.Fatal(err)
	}
	images := t.TempDir()

	// rowsOf projects (c0, c1) of a closed c0 range and checks every row
	// is one the range selected.
	rowsOf := func(table string, lo, hi int64) (int, error) {
		res, err := s.Select(table, "c0", lo, hi)
		if err != nil {
			return 0, err
		}
		got, err := res.Rows("c0", "c1")
		if err != nil {
			return 0, err
		}
		if len(got) != res.Count() {
			return 0, fmt.Errorf("%s: %d rows for a count of %d", table, len(got), res.Count())
		}
		for _, r := range got {
			if r[0] < lo || r[0] > hi {
				return 0, fmt.Errorf("%s: row %v outside [%d,%d]", table, r, lo, hi)
			}
		}
		return len(got), nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				table := fmt.Sprintf("t%d", (worker+i)%tables)
				lo := int64((worker*37+i*11)%(rows-100) + 1)
				var err error
				switch {
				case worker%4 == 3 && i%50 == 0:
					// Tapestry columns hold 1..rows; inserts land outside
					// every probed range so counts stay deterministic.
					err = s.InsertRows(table, [][]int64{{-1, -1}})
				case worker%4 == 3 && i%50 == 25:
					// Deletes take only what the inserts added.
					_, err = s.Delete(table, Cond{Col: "c0", Op: "<", Val: 1})
				case worker == 2 && i%40 == 0:
					if err = s.DropTable("churn"); err == nil {
						err = s.LoadTapestry("churn", 500, 2, int64(i))
					}
				case worker%4 == 1 && i%50 == 0:
					var commit func()
					commit, _, err = s.WriteImage(filepath.Join(images, fmt.Sprintf("w%d-%d", worker, i)), false)
					if err == nil {
						commit()
					}
				case i%7 == 0:
					// The churned table may be gone between two statements.
					if _, err = rowsOf("churn", 1, 400); err != nil && strings.Contains(err.Error(), "does not exist") {
						err = nil
					}
				case i%5 == 0:
					// Each column is a permutation of 1..rows: a closed
					// range of width 100 inside the domain holds exactly
					// 100 values.
					var n int
					if n, err = rowsOf(table, lo, lo+99); err == nil && n != 100 {
						err = fmt.Errorf("worker %d: rows(%s, [%d,%d]) = %d, want 100", worker, table, lo, lo+99, n)
					}
				default:
					var got int
					if got, err = s.Count(table, "c0", lo, lo+99); err == nil && got != 100 {
						err = fmt.Errorf("worker %d: count(%s, [%d,%d]) = %d, want 100", worker, table, lo, lo+99, got)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.SidewaysStats(); st.Pays > 1 || st.Projections == 0 {
		t.Fatalf("budget 1 under concurrent projections: %+v", st)
	}
}
