package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"crackdb"
)

func TestRenderKnownForms(t *testing.T) {
	cases := []string{
		"CREATE TABLE r (k INT, a INT)",
		"DROP TABLE r",
		"INSERT INTO r VALUES (1, 2), (-3, 4)",
		"SELECT * FROM r",
		"SELECT k, a FROM r WHERE a >= 10 AND a < 20 ORDER BY k DESC LIMIT 5",
		"SELECT sensor, COUNT(*), SUM(value) FROM events GROUP BY sensor",
		"SELECT k INTO frag001 FROM r WHERE a <> 7",
	}
	for _, sqlText := range cases {
		stmt, err := Parse(sqlText)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sqlText, err)
		}
		if got := Render(stmt); got != sqlText {
			t.Fatalf("Render(Parse(%q)) = %q", sqlText, got)
		}
	}
}

// genSelect builds a random but valid Select statement.
func genSelect(rng *rand.Rand) *Select {
	cols := []string{"a", "b", "c", "k"}
	s := &Select{Table: "t", Limit: -1}
	if rng.Intn(3) == 0 {
		s.Star = true
	} else {
		n := 1 + rng.Intn(3)
		aggMode := rng.Intn(2) == 0
		for i := 0; i < n; i++ {
			if aggMode {
				aggs := []AggKind{AggCountStar, AggCount, AggSum, AggMin, AggMax}
				agg := aggs[rng.Intn(len(aggs))]
				it := SelectItem{Agg: agg}
				if agg != AggCountStar {
					it.Col = cols[rng.Intn(len(cols))]
				}
				s.Items = append(s.Items, it)
			} else {
				s.Items = append(s.Items, SelectItem{Col: cols[rng.Intn(len(cols))]})
			}
		}
		if aggMode && rng.Intn(2) == 0 {
			s.GroupBy = cols[rng.Intn(len(cols))]
		}
	}
	if rng.Intn(2) == 0 {
		ops := []string{"<", "<=", "=", ">=", ">", "<>"}
		for i := 0; i < 1+rng.Intn(3); i++ {
			s.Where = append(s.Where, crackdb.Cond{
				Col: cols[rng.Intn(len(cols))],
				Op:  ops[rng.Intn(len(ops))],
				Val: rng.Int63n(2000) - 1000,
			})
		}
	}
	if rng.Intn(2) == 0 {
		s.OrderBy = cols[rng.Intn(len(cols))]
		s.Desc = rng.Intn(2) == 0
	}
	if rng.Intn(3) == 0 {
		s.Limit = rng.Intn(100)
	}
	return s
}

// Property: rendering then re-parsing reproduces the statement exactly.
func TestQuickRenderParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		want := genSelect(rng)
		got, err := Parse(Render(want))
		if err != nil {
			t.Logf("Parse(%q): %v", Render(want), err)
			return false
		}
		if !reflect.DeepEqual(got.(*Select), want) {
			t.Logf("round trip:\n  want %#v\n  got  %#v\n  sql  %q", want, got, Render(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: insert statements round-trip for arbitrary row contents.
func TestQuickInsertRoundTrip(t *testing.T) {
	f := func(rowsRaw [][3]int64) bool {
		if len(rowsRaw) == 0 {
			return true
		}
		want := Insert{Table: "t"}
		for _, r := range rowsRaw {
			want.Rows = append(want.Rows, []int64{r[0], r[1], r[2]})
		}
		got, err := Parse(Render(want))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.(Insert), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderUnsupported(t *testing.T) {
	type fake struct{ Stmt }
	if got := Render(fake{}); got == "" {
		t.Fatal("unsupported statement rendered empty")
	}
	if got := fmt.Sprint(Render(fake{})); got[0] != '-' {
		t.Fatalf("unsupported render = %q", got)
	}
}
