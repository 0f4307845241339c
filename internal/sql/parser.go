package sql

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"crackdb"
)

// parser is a recursive-descent parser pulling tokens from a scanner.
type parser struct {
	scanner
	tok Token // the lookahead
	err error // the first scan error; the lookahead is then TokEOF
}

// Parse parses a single statement (a trailing semicolon is allowed).
func Parse(input string) (Stmt, error) {
	var stmt Stmt
	n, err := parse(input, func(s Stmt) { stmt = s })
	if err == nil && n != 1 {
		err = fmt.Errorf("sql: expected one statement, got %d", n)
	}
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Stmt, error) {
	var out []Stmt
	if _, err := parse(input, func(s Stmt) { out = append(out, s) }); err != nil {
		return nil, err
	}
	return out, nil
}

// parse hands each statement of input, in order, to each and counts
// them. A scan error anywhere in the input outranks a parse error, as it
// did when the whole input was lexed before parsing.
func parse(input string, each func(Stmt)) (int, error) {
	p := parser{scanner: scanner{src: input}}
	p.tok, p.err = p.scan()
	for n := 0; ; n++ {
		for p.accept(TokSymbol, ";") {
		}
		if p.tok.Kind == TokEOF {
			return n, p.err
		}
		s, err := p.statement()
		if err == nil && !p.accept(TokSymbol, ";") && p.tok.Kind != TokEOF {
			err = p.errorf("expected ';' or end of input, got %q", p.tok.Text)
		}
		if err != nil || p.err != nil {
			for p.next().Kind != TokEOF {
			}
			return n, cmp.Or(p.err, err)
		}
		each(s)
	}
}

// next consumes the lookahead; after the last token or a scan error it stays TokEOF.
func (p *parser) next() Token {
	t := p.tok
	if t.Kind != TokEOF {
		p.tok, p.err = p.scan()
	}
	return t
}

// accept consumes the lookahead if it is the given token.
func (p *parser) accept(kind TokenKind, text string) bool {
	if p.tok.Kind == kind && p.tok.Text == text {
		p.next()
		return true
	}
	return false
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: offset %d: %s", p.tok.Pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.Kind != TokKeyword || t.Text != kw {
		return fmt.Errorf("sql: offset %d: expected %s, got %q", t.Pos, kw, t.Text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.Kind != TokSymbol || t.Text != sym {
		return fmt.Errorf("sql: offset %d: expected %q, got %q", t.Pos, sym, t.Text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t.Kind != TokIdent {
		return "", fmt.Errorf("sql: offset %d: expected identifier, got %q", t.Pos, t.Text)
	}
	return t.Text, nil
}

func (p *parser) number() (int64, error) {
	t := p.next()
	if t.Kind != TokNumber {
		return 0, fmt.Errorf("sql: offset %d: expected number, got %q", t.Pos, t.Text)
	}
	v, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sql: offset %d: %v", t.Pos, err)
	}
	return v, nil
}

func (p *parser) statement() (Stmt, error) {
	t := p.tok
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected statement keyword, got %q", t.Text)
	}
	switch t.Text {
	case "CREATE":
		return p.createTable()
	case "DROP":
		return p.dropTable()
	case "INSERT":
		return p.insert()
	case "DELETE":
		return p.deleteStmt()
	case "SELECT":
		return p.selectStmt()
	default:
		return nil, p.errorf("unsupported statement %s", t.Text)
	}
}

func (p *parser) createTable() (Stmt, error) {
	p.next() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		// Optional type annotation, integer only.
		_ = p.accept(TokKeyword, "INT") || p.accept(TokKeyword, "INTEGER")
		cols = append(cols, col)
		if p.accept(TokSymbol, ")") {
			break
		}
		if t := p.next(); !(t.Kind == TokSymbol && t.Text == ",") {
			return nil, fmt.Errorf("sql: offset %d: expected ',' or ')', got %q", t.Pos, t.Text)
		}
	}
	return CreateTable{Name: name, Columns: cols}, nil
}

func (p *parser) dropTable() (Stmt, error) {
	p.next() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return DropTable{Name: name}, nil
}

func (p *parser) insert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]int64
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []int64
		for {
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.accept(TokSymbol, ")") {
				break
			}
			if t := p.next(); !(t.Kind == TokSymbol && t.Text == ",") {
				return nil, fmt.Errorf("sql: offset %d: expected ',' or ')', got %q", t.Pos, t.Text)
			}
		}
		if rows = append(rows, row); !p.accept(TokSymbol, ",") {
			return Insert{Table: table, Rows: rows}, nil
		}
	}
}

func (p *parser) deleteStmt() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := Delete{Table: table}
	if p.accept(TokKeyword, "WHERE") {
		conds, err := p.conjunction()
		if err != nil {
			return nil, err
		}
		del.Where = conds
	}
	return del, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	p.next() // SELECT
	sel := Select{Limit: -1}

	// Projection list.
	if p.accept(TokSymbol, "*") {
		sel.Star = true
	} else {
		var buf [8]SelectItem // sizes Items once, for up to 8 items
		items := buf[:0]
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			if items = append(items, item); !p.accept(TokSymbol, ",") {
				break
			}
		}
		sel.Items = slices.Clone(items)
	}

	// Optional INTO (the paper's SELECT INTO fragNNN idiom).
	if p.accept(TokKeyword, "INTO") {
		into, err := p.ident()
		if err != nil {
			return nil, err
		}
		sel.Into = into
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = table

	if p.accept(TokKeyword, "WHERE") {
		conds, err := p.conjunction()
		if err != nil {
			return nil, err
		}
		sel.Where = conds
	}
	if p.accept(TokKeyword, "GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		sel.GroupBy = col
	}
	if p.accept(TokKeyword, "ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = col
		sel.Desc = !p.accept(TokKeyword, "ASC") && p.accept(TokKeyword, "DESC")
	}
	if p.accept(TokKeyword, "LIMIT") {
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, p.errorf("negative LIMIT %d", v)
		}
		sel.Limit = int(v)
	}
	return sel, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	t := p.tok
	if t.Kind == TokKeyword {
		switch t.Text {
		case "COUNT", "SUM", "MIN", "MAX":
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return SelectItem{}, err
			}
			if t.Text == "COUNT" {
				if p.accept(TokSymbol, "*") {
					if err := p.expectSymbol(")"); err != nil {
						return SelectItem{}, err
					}
					return SelectItem{Agg: AggCountStar}, nil
				}
			}
			col, err := p.ident()
			if err != nil {
				return SelectItem{}, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			agg := map[string]AggKind{"COUNT": AggCount, "SUM": AggSum, "MIN": AggMin, "MAX": AggMax}[t.Text]
			return SelectItem{Col: col, Agg: agg}, nil
		}
	}
	col, err := p.ident()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: stripQualifier(col)}, nil
}

func (p *parser) conjunction() ([]crackdb.Cond, error) {
	var buf [8]crackdb.Cond // sizes the conjunction once, for up to 8 conditions
	out := buf[:0]
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		col = stripQualifier(col)
		t := p.next()
		switch {
		case t.Kind == TokOp:
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			out = append(out, crackdb.Cond{Col: col, Op: t.Text, Val: v})
		case t.Kind == TokKeyword && t.Text == "BETWEEN":
			lo, err := p.number()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.number()
			if err != nil {
				return nil, err
			}
			out = append(out, crackdb.Cond{Col: col, Op: ">=", Val: lo}, crackdb.Cond{Col: col, Op: "<=", Val: hi})
		default:
			return nil, fmt.Errorf("sql: offset %d: expected comparison, got %q", t.Pos, t.Text)
		}
		if !p.accept(TokKeyword, "AND") {
			return slices.Clone(out), nil
		}
	}
}

// stripQualifier reduces r.a to a: the dialect is single-table, so the
// qualifier is redundant but accepted (the paper's examples write R.a).
func stripQualifier(col string) string {
	if i := strings.LastIndexByte(col, '.'); i >= 0 {
		return col[i+1:]
	}
	return col
}
