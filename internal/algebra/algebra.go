// Package algebra implements a Volcano-style n-ary query engine
// [Graefe 93], the "traditional SQL system" substrate the paper runs its
// black-box experiments against (§5.1): tuple-at-a-time iterators for
// scan, filter and joins, and the three result-delivery sinks of
// Figure 1 (count, print to front-end, materialize into a new table).
//
// The package also provides engine Profiles — synthetic personalities
// with the cost structure of the paper's comparison systems (row stores
// with transactional materialization and bounded join optimizers versus
// a vectorized binary-table engine) — and the vectorized column-at-a-time
// operators of the MonetDB-like engine (vector.go).
package algebra

import (
	"errors"
	"fmt"

	"crackdb/internal/expr"
	"crackdb/internal/relation"
)

// Row is one n-ary tuple flowing through the iterator tree.
type Row []int64

// Iterator is the Volcano operator interface: Open / Next / Close with a
// fixed output schema. Next returns ok=false at end of stream.
type Iterator interface {
	Open() error
	Next() (row Row, ok bool, err error)
	Close() error
	Schema() []string
}

// ErrNotOpen is returned by Next on an unopened iterator.
var ErrNotOpen = errors.New("algebra: iterator not open")

// colIndex resolves a column name in a schema.
func colIndex(schema []string, name string) (int, error) {
	for i, s := range schema {
		if s == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("algebra: column %q not in schema %v", name, schema)
}

// TableScan streams a relation tuple-at-a-time, allocating one Row per
// tuple — deliberately modelling the per-tuple interpretation overhead of
// classic engines.
type TableScan struct {
	table  *relation.Table
	schema []string
	bats   []interface{ Int(int) int64 }
	pos    int
	open   bool
}

// NewTableScan returns a scan over all columns of t.
func NewTableScan(t *relation.Table) *TableScan {
	return &TableScan{table: t, schema: t.ColumnNames()}
}

// Open implements Iterator.
func (s *TableScan) Open() error {
	s.pos = 0
	s.open = true
	return nil
}

// Next implements Iterator.
func (s *TableScan) Next() (Row, bool, error) {
	if !s.open {
		return nil, false, ErrNotOpen
	}
	if s.pos >= s.table.Len() {
		return nil, false, nil
	}
	row := make(Row, len(s.schema))
	for j, c := range s.table.Cols {
		row[j] = c.Data.Int(s.pos)
	}
	s.pos++
	return row, true, nil
}

// Close implements Iterator.
func (s *TableScan) Close() error {
	s.open = false
	return nil
}

// Schema implements Iterator.
func (s *TableScan) Schema() []string { return s.schema }

// Filter passes through tuples satisfying a conjunctive term.
type Filter struct {
	in     Iterator
	term   expr.Term
	idx    [][2]int // (term predicate index → schema column index)
	schema []string
}

// NewFilter wraps in with the predicate term.
func NewFilter(in Iterator, term expr.Term) (*Filter, error) {
	schema := in.Schema()
	f := &Filter{in: in, term: term, schema: schema}
	for pi, p := range term {
		ci, err := colIndex(schema, p.Col)
		if err != nil {
			return nil, err
		}
		f.idx = append(f.idx, [2]int{pi, ci})
	}
	return f, nil
}

// Open implements Iterator.
func (f *Filter) Open() error { return f.in.Open() }

// Next implements Iterator.
func (f *Filter) Next() (Row, bool, error) {
	for {
		row, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		match := true
		for _, m := range f.idx {
			if !f.term[m[0]].Match(row[m[1]]) {
				match = false
				break
			}
		}
		if match {
			return row, true, nil
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() error { return f.in.Close() }

// Schema implements Iterator.
func (f *Filter) Schema() []string { return f.schema }

// Rename prefixes every column of the input schema, disambiguating
// self-joins (R0.k, R1.k, ...).
type Rename struct {
	in     Iterator
	schema []string
}

// NewRename qualifies the input columns with prefix.
func NewRename(in Iterator, prefix string) *Rename {
	base := in.Schema()
	schema := make([]string, len(base))
	for i, s := range base {
		schema[i] = prefix + "." + s
	}
	return &Rename{in: in, schema: schema}
}

// Open implements Iterator.
func (r *Rename) Open() error { return r.in.Open() }

// Next implements Iterator.
func (r *Rename) Next() (Row, bool, error) { return r.in.Next() }

// Close implements Iterator.
func (r *Rename) Close() error { return r.in.Close() }

// Schema implements Iterator.
func (r *Rename) Schema() []string { return r.schema }

// Drain runs an iterator to completion and returns all rows (test and
// sink helper).
func Drain(it Iterator) ([]Row, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}
