// Package relation maps n-ary SQL-style tables onto binary tables, the
// way MonetDB's SQL compiler does: each attribute becomes one BAT whose
// dense void head is the shared surrogate key (oid), so an n-ary tuple is
// the 1:1 composition of its attribute BATs at the same oid (paper
// §3.4.2: "N-ary relational tables are mapped ... into a series of binary
// tables with attributes head and tail").
package relation

import (
	"fmt"
	"strings"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
)

// Column is a named attribute backed by a BAT.
type Column struct {
	Name string
	Data *bat.BAT
}

// Table is an n-ary relation: aligned attribute BATs sharing the dense
// oid head.
type Table struct {
	Name   string
	Cols   []Column
	byName map[string]int
}

// New creates an empty integer table with the given attribute names. A
// table keeps its own copy of its names: the caller's may be substrings
// of a larger text, such as a server's window of requests, that the
// table would otherwise keep alive for as long as it lives.
func New(name string, colNames ...string) *Table {
	name = strings.Clone(name)
	t := &Table{Name: name, byName: make(map[string]int, len(colNames))}
	for _, cn := range colNames {
		cn = strings.Clone(cn)
		t.byName[cn] = len(t.Cols)
		t.Cols = append(t.Cols, Column{Name: cn, Data: bat.NewInt(name+"_"+cn, 0)})
	}
	return t
}

// FromColumns builds a table around existing BATs. All BATs must have the
// same length. Like New, the table keeps its own copy of its names.
func FromColumns(name string, cols ...Column) (*Table, error) {
	t := &Table{Name: strings.Clone(name), byName: make(map[string]int, len(cols))}
	n := -1
	for _, c := range cols {
		if n == -1 {
			n = c.Data.Len()
		} else if c.Data.Len() != n {
			return nil, fmt.Errorf("relation: column %q has %d rows, want %d", c.Name, c.Data.Len(), n)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		c.Name = strings.Clone(c.Name)
		t.byName[c.Name] = len(t.Cols)
		t.Cols = append(t.Cols, c)
	}
	return t, nil
}

// Len returns the number of tuples.
func (t *Table) Len() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Data.Len()
}

// Arity returns the number of attributes (the α of MQS).
func (t *Table) Arity() int { return len(t.Cols) }

// Column returns the BAT backing the named attribute.
func (t *Table) Column(name string) (*bat.BAT, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("relation: table %q has no column %q", t.Name, name)
	}
	return t.Cols[i].Data, nil
}

// MustColumn is Column for callers that have validated the schema.
func (t *Table) MustColumn(name string) *bat.BAT {
	b, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return b
}

// ColumnNames returns the attribute names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	return names
}

// HasColumn reports whether the attribute exists.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// AppendRow appends one tuple; vals must match the arity.
func (t *Table) AppendRow(vals ...int64) error {
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("relation: row arity %d, table %q has %d", len(vals), t.Name, len(t.Cols))
	}
	for i, v := range vals {
		t.Cols[i].Data.AppendInts(v)
	}
	return nil
}

// Row materializes the tuple at position i in declaration order.
func (t *Table) Row(i int) []int64 {
	row := make([]int64, len(t.Cols))
	for j, c := range t.Cols {
		row[j] = c.Data.Int(i)
	}
	return row
}

// RowMap materializes the tuple at position i keyed by attribute name,
// the shape expr.Term.Match consumes.
func (t *Table) RowMap(i int) map[string]int64 {
	row := make(map[string]int64, len(t.Cols))
	for _, c := range t.Cols {
		row[c.Name] = c.Data.Int(i)
	}
	return row
}

// Filter materializes the tuples whose row map satisfies the term into a
// fresh table (the naive reference evaluator the tests compare against).
func (t *Table) Filter(name string, term expr.Term) *Table {
	out := New(name, t.ColumnNames()...)
	for i := 0; i < t.Len(); i++ {
		if term.Match(t.RowMap(i)) {
			if err := out.AppendRow(t.Row(i)...); err != nil {
				panic(err) // arity is ours by construction
			}
		}
	}
	return out
}

// Clone deep-copies the table.
func (t *Table) Clone(name string) *Table {
	out := &Table{Name: name, byName: make(map[string]int, len(t.Cols))}
	for _, c := range t.Cols {
		out.byName[c.Name] = len(out.Cols)
		out.Cols = append(out.Cols, Column{Name: c.Name, Data: c.Data.Clone(name + "_" + c.Name)})
	}
	return out
}
