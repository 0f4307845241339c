// Package oracle is the correctness harness every backend answers to. A
// query physically reorganizes the store that answers it (paper §2), so
// two backends that served the same stream hold different bytes and only
// their answers can be compared. This package defines those answers: a
// seeded op generator (Gen) that a fuzzer's bytes can drive too, one
// sequential model (Model) that answers each op, and postures that apply
// the same op to a backend and render its answer the model's way. Run
// fails a test at the first answer that differs from the model's.
//
// Only tests import it; CI keeps it out of every binary.
package oracle

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"crackdb"
)

// Kind names what an op does.
type Kind uint8

// The op kinds. A query kind names the store or router call it makes.
const (
	Create     Kind = iota // CREATE TABLE Table (Cols)
	Drop                   // DROP TABLE Table
	Insert                 // InsertRows(Table, Rows)
	Delete                 // Delete(Table, Conds)
	Count                  // CountWhere(Table, Conds), or Count(Table, Col, Ranges[0]) when Col is set
	Select                 // SelectWhere(Table, Conds), then Rows(Cols)
	Fetch                  // Select(Table, Col, Ranges[0]), then Rows(Cols); the result is held
	Refetch                // Rows(Cols) again on the Held-th held result
	CountBatch             // CountBatch(Table, Col, Ranges)
	Group                  // GroupBy(Table, Col)
	Flip                   // force strategy Name on (Table, Col); "" releases it
	Reboot                 // save the store and open it again
	numKinds
)

var kindNames = [numKinds]string{"create", "drop", "insert", "delete", "count", "select",
	"fetch", "refetch", "countbatch", "group", "flip", "reboot"}

// Mix weighs the op kinds a generator draws.
type Mix [numKinds]int

// Op is one step of a stream. Which fields matter depends on Kind.
type Op struct {
	Kind   Kind
	Table  string
	Cols   []string // Create: the schema; otherwise the projection
	Rows   [][]int64
	Conds  []crackdb.Cond
	Col    string
	Ranges []crackdb.Range // inclusive, as Select takes them
	Held   int
	Name   string
}

func (op Op) String() string {
	type fields Op // without this method
	n := len(op.Rows)
	op.Rows = nil
	return fmt.Sprintf("%s %+v (%d rows)", kindNames[op.Kind], fields(op), n)
}

func (k Kind) counts() bool { return k == Count || k == CountBatch }

// terms are the conjunctions a query op asks: Conds, or Col between the
// bounds of each of Ranges.
func (op Op) terms() [][]crackdb.Cond {
	if op.Col == "" {
		return [][]crackdb.Cond{op.Conds}
	}
	out := make([][]crackdb.Cond, len(op.Ranges))
	for i, r := range op.Ranges {
		out[i] = []crackdb.Cond{{Col: op.Col, Op: ">=", Val: r.Low}, {Col: op.Col, Op: "<=", Val: r.High}}
	}
	return out
}

// sqlOps are the comparisons SQL spells; a store also takes "==" and "!=".
var sqlOps = []string{"<", "<=", "=", ">=", ">", "<>"}

// statements renders the op as what a SQL posture sends, one per term
// of a query. ok is false when SQL cannot say the op: a bad operator, an
// empty schema, row or projection, a held result, a flip, a reboot.
func (op Op) statements() (stmts []string, ok bool) {
	where := func(conds []crackdb.Cond) (string, bool) {
		parts := make([]string, len(conds))
		for i, c := range conds {
			if !slices.Contains(sqlOps, c.Op) {
				return "", false
			}
			parts[i] = fmt.Sprintf("%s %s %d", c.Col, c.Op, c.Val)
		}
		if len(parts) == 0 {
			return "", true
		}
		return " WHERE " + strings.Join(parts, " AND "), true
	}
	switch op.Kind {
	case Create:
		return []string{fmt.Sprintf("CREATE TABLE %s (%s)", op.Table, strings.Join(op.Cols, ", "))}, len(op.Cols) > 0
	case Drop:
		return []string{"DROP TABLE " + op.Table}, true
	case Insert:
		tuples := make([]string, len(op.Rows))
		for i, r := range op.Rows {
			tuples[i] = "(" + strings.ReplaceAll(strings.Trim(fmt.Sprint(r), "[]"), " ", ", ") + ")"
		}
		return []string{"INSERT INTO " + op.Table + " VALUES " + strings.Join(tuples, ", ")},
			len(tuples) > 0 && !slices.ContainsFunc(op.Rows, func(r []int64) bool { return len(r) == 0 })
	case Delete:
		w, ok := where(op.Conds)
		return []string{"DELETE FROM " + op.Table + w}, ok
	case Group:
		return []string{fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s", op.Col, op.Table, op.Col)}, true
	case CountBatch:
		// One spelling an op, picked from its ranges: a SQL posture's
		// window of the op's counts repeats one shape, so its Parser
		// folds each operator from the literals alone.
		var k uint64
		for _, r := range op.Ranges {
			k = 31*k + uint64(r.Low) + uint64(r.High)
		}
		for _, r := range op.Ranges {
			stmts = append(stmts, "SELECT COUNT(*) FROM "+op.Table+" WHERE "+spell(k%4, op.Col, r))
		}
		return stmts, len(stmts) > 0
	case Count, Select, Fetch:
		head := "SELECT COUNT(*) FROM "
		if !op.Kind.counts() {
			head = "SELECT " + strings.Join(op.Cols, ", ") + " FROM "
		}
		for _, conds := range op.terms() {
			w, ok := where(conds)
			if !ok || !op.Kind.counts() && len(op.Cols) == 0 {
				return nil, false
			}
			stmts = append(stmts, head+op.Table+w)
		}
		return stmts, len(stmts) > 0
	}
	return nil, false
}

// spell says the inclusive range r on col in SQL the k-th of four ways:
// >= and <=, > and <, BETWEEN, or =. The second cannot say a bound at a
// domain extreme and the fourth says only Low == High; a range the k-th
// way cannot say takes the first.
func spell(k uint64, col string, r crackdb.Range) string {
	switch {
	case k == 1 && r.Low != math.MinInt64 && r.High != math.MaxInt64:
		return fmt.Sprintf("%s > %d AND %s < %d", col, r.Low-1, col, r.High+1)
	case k == 2:
		return fmt.Sprintf("%s BETWEEN %d AND %d", col, r.Low, r.High)
	case k == 3 && r.Low == r.High:
		return fmt.Sprintf("%s = %d", col, r.Low)
	}
	return fmt.Sprintf("%s >= %d AND %s <= %d", col, r.Low, col, r.High)
}
