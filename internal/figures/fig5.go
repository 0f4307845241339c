package figures

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"crackdb"
)

// Figures 5 and 6: the cracker administration a short query sequence
// leaves behind. Fig5 replays the paper's example against one store —
//
//	select * from R where R.a < 10;
//	select * from R, S where R.k = S.k and R.a < 5;
//	select * from S where S.b > 25;
//
// — and renders, per cracked column, the lineage Store.Lineage reports.
// R.a and S.b are permutations of 1..|R| and 1..|S|, so replay checks
// the Ξ answers; the join keys are random with partial overlap, so the ^
// cracker leaves four non-trivial pieces.
func Fig5(seed int64) (string, error) {
	const nR, nS = 24, 40
	rng := rand.New(rand.NewSource(seed))
	s := crackdb.New()
	for _, t := range []struct {
		name, attr string
		n          int
	}{{"R", "a", nR}, {"S", "b", nS}} {
		rows := make([][]int64, t.n)
		for i, v := range rng.Perm(t.n) {
			rows[i] = []int64{int64(rng.Intn(30)), int64(v + 1)}
		}
		if err := s.CreateTable(t.name, "k", t.attr); err != nil {
			return "", err
		}
		if err := s.InsertRows(t.name, rows); err != nil {
			return "", err
		}
	}

	var b strings.Builder
	xi := func(table, attr string, title []string, qs ...query) error {
		a, err := served(s, table, attr)
		if err != nil {
			return err
		}
		return replay(a, qs, func(i int, st step) {
			fmt.Fprintf(&b, "== %s\n   Ξ on %s.%s: %d tuples (%d cracks, %d tuples touched, %d moved, now %d pieces)\n",
				title[i], table, attr, st.Count, st.Work.Cracks, st.Work.TuplesTouched, st.Work.TuplesMoved, st.Work.Pieces)
		})
	}
	if err := xi("R", "a", []string{
		"query 1: select * from R where R.a < 10",
		"query 2: select * from R, S where R.k = S.k and R.a < 5",
	}, query{math.MinInt64, 9}, query{math.MinInt64, 4}); err != nil {
		return "", err
	}
	j, err := s.SemijoinSplit("R", "k", "S", "k")
	if err != nil {
		return "", err
	}
	if j.RMatch+j.RRest != nR || j.SMatch+j.SRest != nS {
		return "", fmt.Errorf("figures: fig5: ^ pieces %+v do not partition R (%d) and S (%d)", j, nR, nS)
	}
	fmt.Fprintf(&b, "   ^ on R.k = S.k: R⋉S=%d  R∖=%d  S⋉R=%d  S∖=%d\n", j.RMatch, j.RRest, j.SMatch, j.SRest)
	if err := xi("S", "b", []string{"query 3: select * from S where S.b > 25"}, query{26, math.MaxInt64}); err != nil {
		return "", err
	}

	b.WriteString("\n== cracker lineage (compare paper Figure 5) ==\n")
	for _, c := range [][2]string{{"R", "a"}, {"R", "k"}, {"S", "k"}, {"S", "b"}} {
		lin, err := s.Lineage(c[0], c[1])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "-- %s.%s --\n%s", c[0], c[1], lin)
	}
	return b.String(), nil
}
