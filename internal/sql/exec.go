package sql

import (
	"fmt"
	"sort"

	"crackdb"
	"crackdb/internal/shard"
)

// Engine executes parsed statements against the shard router — one shard
// or many, the only store it runs on. WHERE conjunctions are routed
// through the router's SelectWhere, so every executed query doubles as
// cracking advice, and rows come back in the router's canonical order.
type Engine struct {
	store *shard.Store
}

// NewEngineOn wraps a router.
func NewEngineOn(store *shard.Store) *Engine {
	return &Engine{store: store}
}

// ResultSet is a tabular statement result. DDL and DML return a nil
// Rows slice and a human-readable Message.
type ResultSet struct {
	Columns []string
	Rows    [][]int64
	Message string
}

// Exec parses and executes one statement.
func (e *Engine) Exec(input string) (*ResultSet, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return e.execStmt(stmt)
}

// execStmt executes a parsed statement.
func (e *Engine) execStmt(stmt Stmt) (*ResultSet, error) {
	switch s := stmt.(type) {
	case CreateTable:
		if err := e.store.CreateTable(s.Name, s.Columns...); err != nil {
			return nil, err
		}
		return &ResultSet{Message: fmt.Sprintf("created table %s (%d columns)", s.Name, len(s.Columns))}, nil
	case DropTable:
		if err := e.store.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &ResultSet{Message: "dropped table " + s.Name}, nil
	case Insert:
		if err := e.store.InsertRows(s.Table, s.Rows); err != nil {
			return nil, err
		}
		return &ResultSet{Message: fmt.Sprintf("inserted %d rows into %s", len(s.Rows), s.Table)}, nil
	case Delete:
		n, err := e.store.Delete(s.Table, s.Where...)
		if err != nil {
			return nil, err
		}
		return &ResultSet{Message: fmt.Sprintf("deleted %d rows from %s", n, s.Table)}, nil
	case *Select:
		return e.execSelect(s)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

func (e *Engine) execSelect(s *Select) (*ResultSet, error) {
	// Fast path: SELECT COUNT(*) FROM t [WHERE ...] needs no fetch.
	if s.countStar() {
		n, err := e.store.CountWhere(s.Table, s.Where...)
		if err != nil {
			return nil, err
		}
		return &countResults([]int{n})[0], nil
	}

	// Ω fast path: SELECT g, COUNT(*) FROM t GROUP BY g without WHERE is
	// exactly the group cracker — it clusters the column as a side effect
	// and returns the group sizes without fetching any rows.
	if len(s.Where) == 0 && s.GroupBy != "" && s.Into == "" && len(s.Items) == 2 &&
		s.Items[0].Agg == AggNone && s.Items[0].Col == s.GroupBy &&
		(s.Items[1].Agg == AggCountStar || (s.Items[1].Agg == AggCount && s.Items[1].Col == s.GroupBy)) {
		groups, err := e.store.GroupBy(s.Table, s.GroupBy)
		if err != nil {
			return nil, err
		}
		rs := &ResultSet{Columns: []string{s.Items[0].Label(), s.Items[1].Label()}}
		for _, g := range groups {
			rs.Rows = append(rs.Rows, []int64{g.Value, int64(g.Count)})
		}
		return e.finish(s, rs)
	}

	res, err := e.store.SelectWhere(s.Table, s.Where...)
	if err != nil {
		return nil, err
	}

	items := s.Items
	if s.Star {
		cols, err := e.store.Columns(s.Table)
		if err != nil {
			return nil, err
		}
		items = make([]SelectItem, len(cols))
		for i, c := range cols {
			items[i] = SelectItem{Col: c}
		}
	}

	if s.GroupBy != "" || hasAggregate(items) {
		rs, err := e.aggregate(s, items, res)
		if err != nil {
			return nil, err
		}
		return e.finish(s, rs)
	}

	// Plain projection: fetch the projected columns (plus the ORDER BY
	// column if it is not projected).
	fetchCols := make([]string, 0, len(items)+1)
	for _, it := range items {
		fetchCols = append(fetchCols, it.Col)
	}
	orderIdx := -1
	if s.OrderBy != "" {
		for i, c := range fetchCols {
			if c == s.OrderBy {
				orderIdx = i
			}
		}
		if orderIdx == -1 {
			fetchCols = append(fetchCols, s.OrderBy)
			orderIdx = len(fetchCols) - 1
		}
	}
	rows, err := res.Rows(fetchCols...)
	if err != nil {
		return nil, err
	}
	if s.OrderBy != "" {
		sort.SliceStable(rows, func(a, b int) bool {
			if s.Desc {
				return rows[a][orderIdx] > rows[b][orderIdx]
			}
			return rows[a][orderIdx] < rows[b][orderIdx]
		})
		if orderIdx == len(items) { // ORDER BY column was fetched extra
			for i := range rows {
				rows[i] = rows[i][:len(items)]
			}
		}
	}
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.Label()
	}
	return e.finish(s, &ResultSet{Columns: cols, Rows: rows})
}

// countStar is the COUNT(*) fast path's guard; the batch fold
// (rangeCount) decides by it too, so the two cannot drift apart.
func (s *Select) countStar() bool {
	return len(s.Items) == 1 && s.Items[0].Agg == AggCountStar && s.GroupBy == "" && s.Into == ""
}

// countResults answers counts with one block per field of ResultSet,
// so a folded run of counts costs four allocations, not four a count.
func countResults(counts []int) []ResultSet {
	sets, cols := make([]ResultSet, len(counts)), make([]string, len(counts))
	rows, vals := make([][]int64, len(counts)), make([]int64, len(counts))
	for k, n := range counts {
		cols[k], vals[k], rows[k] = "count(*)", int64(n), vals[k:k+1:k+1]
		sets[k] = ResultSet{Columns: cols[k : k+1 : k+1], Rows: rows[k : k+1 : k+1]}
	}
	return sets
}

func hasAggregate(items []SelectItem) bool {
	for _, it := range items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

// aggregate evaluates GROUP BY and plain aggregates over the result.
func (e *Engine) aggregate(s *Select, items []SelectItem, res crackdb.Rows) (*ResultSet, error) {
	// Validate the projection: with GROUP BY, plain columns must be the
	// grouping column.
	for _, it := range items {
		if it.Agg == AggNone && s.GroupBy != "" && it.Col != s.GroupBy {
			return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or an aggregate", it.Col)
		}
		if it.Agg == AggNone && s.GroupBy == "" {
			return nil, fmt.Errorf("sql: cannot mix plain column %q with aggregates without GROUP BY", it.Col)
		}
	}

	// Collect the input columns the aggregates need.
	fetch := make([]string, 0, len(items)+1)
	index := map[string]int{}
	add := func(col string) int {
		if i, ok := index[col]; ok {
			return i
		}
		index[col] = len(fetch)
		fetch = append(fetch, col)
		return index[col]
	}
	groupIdx := -1
	if s.GroupBy != "" {
		groupIdx = add(s.GroupBy)
	}
	itemIdx := make([]int, len(items))
	for i, it := range items {
		if it.Col != "" {
			itemIdx[i] = add(it.Col)
		}
	}

	rows, err := res.Rows(fetch...)
	if err != nil {
		return nil, err
	}

	type acc struct {
		count int64
		sums  []int64
		mins  []int64
		maxs  []int64
		seen  bool
	}
	newAcc := func() *acc {
		return &acc{
			sums: make([]int64, len(items)),
			mins: make([]int64, len(items)),
			maxs: make([]int64, len(items)),
		}
	}
	groups := map[int64]*acc{}
	var order []int64
	for _, r := range rows {
		key := int64(0)
		if groupIdx >= 0 {
			key = r[groupIdx]
		}
		a, ok := groups[key]
		if !ok {
			a = newAcc()
			groups[key] = a
			order = append(order, key)
		}
		a.count++
		for i, it := range items {
			if it.Agg == AggNone || it.Agg == AggCountStar {
				continue
			}
			v := r[itemIdx[i]]
			a.sums[i] += v
			if !a.seen || v < a.mins[i] {
				a.mins[i] = v
			}
			if !a.seen || v > a.maxs[i] {
				a.maxs[i] = v
			}
		}
		a.seen = true
	}
	if s.GroupBy == "" && len(groups) == 0 {
		groups[0] = newAcc() // aggregates over empty input yield one row
		order = append(order, 0)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })

	out := &ResultSet{}
	for _, it := range items {
		out.Columns = append(out.Columns, it.Label())
	}
	for _, key := range order {
		a := groups[key]
		row := make([]int64, len(items))
		for i, it := range items {
			switch it.Agg {
			case AggNone:
				row[i] = key
			case AggCountStar, AggCount:
				row[i] = a.count
			case AggSum:
				row[i] = a.sums[i]
			case AggMin:
				row[i] = a.mins[i]
			case AggMax:
				row[i] = a.maxs[i]
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// finish applies LIMIT and SELECT INTO.
func (e *Engine) finish(s *Select, rs *ResultSet) (*ResultSet, error) {
	if s.Limit >= 0 && len(rs.Rows) > s.Limit {
		rs.Rows = rs.Rows[:s.Limit]
	}
	if s.Into != "" {
		if err := e.store.CreateTable(s.Into, rs.Columns...); err != nil {
			return nil, err
		}
		if err := e.store.InsertRows(s.Into, rs.Rows); err != nil {
			return nil, err
		}
		return &ResultSet{Message: fmt.Sprintf("selected %d rows into %s", len(rs.Rows), s.Into)}, nil
	}
	return rs, nil
}
