package sql

import (
	"fmt"
	"strconv"
	"strings"

	"crackdb"
)

// Parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
}

// Parse parses a single statement (a trailing semicolon is allowed).
func Parse(input string) (Stmt, error) {
	stmts, err := ParseScript(input)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Stmt, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for {
		for p.peek().Kind == TokSymbol && p.peek().Text == ";" {
			p.next()
		}
		if p.peek().Kind == TokEOF {
			return out, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if t := p.peek(); t.Kind == TokSymbol && t.Text == ";" {
			p.next()
		} else if t.Kind != TokEOF {
			return nil, p.errorf("expected ';' or end of input, got %q", t.Text)
		}
	}
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
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
	t := p.peek()
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
		if t := p.peek(); t.Kind == TokKeyword && (t.Text == "INT" || t.Text == "INTEGER") {
			p.next()
		}
		cols = append(cols, col)
		t := p.next()
		if t.Kind == TokSymbol && t.Text == ")" {
			break
		}
		if !(t.Kind == TokSymbol && t.Text == ",") {
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
			t := p.next()
			if t.Kind == TokSymbol && t.Text == ")" {
				break
			}
			if !(t.Kind == TokSymbol && t.Text == ",") {
				return nil, fmt.Errorf("sql: offset %d: expected ',' or ')', got %q", t.Pos, t.Text)
			}
		}
		rows = append(rows, row)
		if t := p.peek(); t.Kind == TokSymbol && t.Text == "," {
			p.next()
			continue
		}
		return Insert{Table: table, Rows: rows}, nil
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
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "WHERE" {
		p.next()
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
	if t := p.peek(); t.Kind == TokSymbol && t.Text == "*" {
		p.next()
		sel.Star = true
	} else {
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			sel.Items = append(sel.Items, item)
			if t := p.peek(); t.Kind == TokSymbol && t.Text == "," {
				p.next()
				continue
			}
			break
		}
	}

	// Optional INTO (the paper's SELECT INTO fragNNN idiom).
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "INTO" {
		p.next()
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

	if t := p.peek(); t.Kind == TokKeyword && t.Text == "WHERE" {
		p.next()
		conds, err := p.conjunction()
		if err != nil {
			return nil, err
		}
		sel.Where = conds
	}
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "GROUP" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		sel.GroupBy = col
	}
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "ORDER" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = col
		if t := p.peek(); t.Kind == TokKeyword && (t.Text == "ASC" || t.Text == "DESC") {
			p.next()
			sel.Desc = t.Text == "DESC"
		}
	}
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "LIMIT" {
		p.next()
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
	t := p.peek()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "COUNT", "SUM", "MIN", "MAX":
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return SelectItem{}, err
			}
			if t.Text == "COUNT" {
				if s := p.peek(); s.Kind == TokSymbol && s.Text == "*" {
					p.next()
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
	var out []crackdb.Cond
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
		if t := p.peek(); t.Kind == TokKeyword && t.Text == "AND" {
			p.next()
			continue
		}
		return out, nil
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
