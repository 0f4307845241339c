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
// SELECT INTO fragment-building idiom.
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

func (CreateTable) stmt() {}
func (DropTable) stmt()   {}
func (Insert) stmt()      {}
func (Delete) stmt()      {}
func (Select) stmt()      {}
