package oracle

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"crackdb"
)

// Model is the sequential specification: each table's rows as a
// multiset, and the rows each Fetch selected. Its answer to an op is the
// answer every posture must give, error text included — for each error
// class the single store's text is the canonical one.
type Model struct {
	tables map[string]*table
	held   []held
}

type table struct {
	name string
	cols []string
	rows [][]int64
}

// held is a Fetch's answer: the table's schema then, the rows the range
// selected, and the range.
type held struct {
	*table
	col string
	rng crackdb.Range
}

// NewModel returns a model without tables.
func NewModel() *Model { return &Model{tables: make(map[string]*table)} }

// Count is the model's Count(table, col, lo, hi) on a table that exists.
func (m *Model) Count(table, col string, lo, hi int64) int {
	rows, _ := m.tables[table].filter(Op{Col: col, Ranges: []crackdb.Range{{Low: lo, High: hi}}}.terms()[0])
	return len(rows)
}

// Do applies op and returns its answer: "ok", "deleted N", "count N",
// a row set ("N rows", then a tab-separated line per row in canonical
// order), one answer per range joined by "--" lines, or "err " and the
// error text. A flip has no answer to check (ok is false): how a posture
// flips is its own business, and no answer depends on it.
func (m *Model) Do(op Op) (ans string, ok bool) { return answer(m.do(op)), op.Kind != Flip }

func (m *Model) do(op Op) (string, error) {
	switch op.Kind {
	case Create:
		return "ok", m.create(op.Table, op.Cols)
	case Reboot:
		return "ok", nil
	case Refetch:
		h := m.held[op.Held]
		return h.project(h.rows, op.Cols)
	}
	t := m.tables[op.Table]
	if t == nil {
		return "", fmt.Errorf("crackdb: table %q does not exist", op.Table)
	}
	switch op.Kind {
	case Drop:
		delete(m.tables, op.Table)
		return "ok", nil
	case Insert:
		for i, r := range op.Rows {
			if len(r) != len(t.cols) {
				return "", fmt.Errorf("crackdb: row %d arity %d, table %q has %d", i, len(r), t.name, len(t.cols))
			}
		}
		t.rows = append(t.rows, op.Rows...)
		return "ok", nil
	case Delete:
		match, err := t.match(op.Conds)
		if err != nil {
			return "", err
		}
		n := len(t.rows)
		t.rows = slices.DeleteFunc(t.rows, match)
		return fmt.Sprintf("deleted %d", n-len(t.rows)), nil
	case Group:
		j, err := t.index(op.Col)
		if err != nil {
			return "", err
		}
		counts := make(map[int64]int64)
		for _, r := range t.rows {
			counts[r[j]]++
		}
		var groups [][]int64
		for v, n := range counts {
			groups = append(groups, []int64{v, n})
		}
		slices.SortFunc(groups, slices.Compare[[]int64])
		return render(groups), nil
	}
	if _, err := t.index(op.Col); op.Col != "" && err != nil { // before an empty batch's loop
		return "", err
	}
	var answers []string
	for _, conds := range op.terms() {
		rows, err := t.filter(conds)
		if err != nil {
			return "", err
		}
		if op.Kind == Fetch {
			m.held = append(m.held, held{&table{t.name, t.cols, rows}, op.Col, op.Ranges[0]})
		}
		ans := fmt.Sprintf("count %d", len(rows))
		if !op.Kind.counts() {
			if ans, err = t.project(rows, op.Cols); err != nil {
				return "", err
			}
		}
		answers = append(answers, ans)
	}
	return strings.Join(answers, batchSep), nil
}

func (m *Model) create(name string, cols []string) error {
	if len(cols) == 0 {
		return fmt.Errorf("crackdb: table %q needs at least one column", name)
	}
	for i, c := range cols {
		if slices.Contains(cols[:i], c) {
			return fmt.Errorf("crackdb: table %q has duplicate column %q", name, c)
		}
	}
	if m.tables[name] != nil {
		return fmt.Errorf("crackdb: table %q already exists", name)
	}
	m.tables[name] = &table{name: name, cols: cols}
	return nil
}

func (t *table) index(col string) (int, error) {
	if j := slices.Index(t.cols, col); j >= 0 {
		return j, nil
	}
	return 0, fmt.Errorf("crackdb: table %q has no column %q", t.name, col)
}

// opCodes number the comparisons a store takes.
var opCodes = map[string]int{"<": 0, "<=": 1, "=": 2, "==": 2, ">=": 3, ">": 4, "<>": 5, "!=": 5}

// match is the conjunction as a predicate on rows, checked the way a
// store checks it: operator, then column, condition by condition.
func (t *table) match(conds []crackdb.Cond) (func(row []int64) bool, error) {
	codes, idx := make([]int, len(conds)), make([]int, len(conds))
	for i, c := range conds {
		var ok bool
		if codes[i], ok = opCodes[c.Op]; !ok {
			return nil, fmt.Errorf("crackdb: unknown operator %q", c.Op)
		}
		var err error
		if idx[i], err = t.index(c.Col); err != nil {
			return nil, err
		}
	}
	return func(r []int64) bool {
		for i, c := range conds {
			if !holds(codes[i], r[idx[i]], c.Val) {
				return false
			}
		}
		return true
	}, nil
}

func holds(code int, v, c int64) bool {
	switch code {
	case 0:
		return v < c
	case 1:
		return v <= c
	case 2:
		return v == c
	case 3:
		return v >= c
	case 4:
		return v > c
	}
	return v != c
}

func (t *table) filter(conds []crackdb.Cond) ([][]int64, error) {
	match, err := t.match(conds)
	if err != nil {
		return nil, err
	}
	var in [][]int64
	for _, r := range t.rows {
		if match(r) {
			in = append(in, r)
		}
	}
	return in, nil
}

// project renders rows projected onto cols in canonical order.
func (t *table) project(rows [][]int64, cols []string) (string, error) {
	out := make([][]int64, len(rows))
	for i := range out {
		out[i] = make([]int64, len(cols))
	}
	for k, c := range cols {
		j, err := t.index(c)
		if err != nil {
			return "", err
		}
		for i, r := range rows {
			out[i][k] = r[j]
		}
	}
	slices.SortFunc(out, slices.Compare[[]int64])
	return render(out), nil
}

// batchSep separates the answers to a batch's ranges.
const batchSep = "--\n"

// render is how every answer spells a row set.
func render(rows [][]int64) string {
	b := fmt.Appendf(nil, "%d rows\n", len(rows))
	for _, r := range rows {
		for j, v := range r {
			if j > 0 {
				b = append(b, '\t')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, '\n')
	}
	return string(b)
}
