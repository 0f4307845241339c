package sql

import (
	"fmt"

	"crackdb"
)

// Stmt is a parsed statement.
type Stmt interface{ stmt() }

// CreateTable is CREATE TABLE name (col INT, ...).
type CreateTable struct {
	Name    string
	Columns []string // all columns are integers in this dialect
}

// DropTable is DROP TABLE name.
type DropTable struct {
	Name string
}

// Insert is INSERT INTO name VALUES (...), (...).
type Insert struct {
	Table string
	Rows  [][]int64
}

// AggKind enumerates the aggregate functions.
type AggKind uint8

// Aggregates.
const (
	AggNone AggKind = iota
	AggCountStar
	AggCount
	AggSum
	AggMin
	AggMax
)

// String renders the SQL spelling.
func (a AggKind) String() string {
	switch a {
	case AggCountStar:
		return "count(*)"
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "none"
	}
}

// SelectItem is one projection entry: a plain column or an aggregate.
type SelectItem struct {
	Col string  // column name ("" for COUNT(*))
	Agg AggKind // AggNone for a plain column
}

// Label renders the output column header.
func (it SelectItem) Label() string {
	switch it.Agg {
	case AggNone:
		return it.Col
	case AggCountStar:
		return "count(*)"
	default:
		return fmt.Sprintf("%s(%s)", it.Agg, it.Col)
	}
}

// Delete is DELETE FROM table [WHERE conj]. Without WHERE it deletes
// every row (the table remains).
type Delete struct {
	Table string
	Where []crackdb.Cond
}

// Select is SELECT items FROM table [WHERE conj] [GROUP BY col]
// [ORDER BY col [DESC]] [LIMIT n], optionally with INTO for the paper's
// SELECT INTO fragment-building idiom. A parse returns it as a *Select.
type Select struct {
	Items   []SelectItem
	Star    bool
	Into    string // "" unless SELECT ... INTO table
	Table   string
	Where   []crackdb.Cond
	GroupBy string
	OrderBy string
	Desc    bool
	Limit   int // -1 = no limit
}

// selectBlock is a Select with inline room for the items and conditions
// of the common statements, so a parse allocates a SELECT once: a count
// has one item and two conditions, a fetch up to four items.
type selectBlock struct {
	sel   Select
	items [4]SelectItem
	conds [2]crackdb.Cond
}

// clone copies s into a block of its own.
func (s *Select) clone() *Select {
	b := &selectBlock{sel: *s}
	if s.Items != nil {
		b.sel.Items = append(b.items[:0], s.Items...)
	}
	if s.Where != nil {
		b.sel.Where = append(b.conds[:0], s.Where...)
	}
	return &b.sel
}

func (CreateTable) stmt() {}
func (DropTable) stmt()   {}
func (Insert) stmt()      {}
func (Delete) stmt()      {}
func (*Select) stmt()     {}
func (*RangeCount) stmt() {}
