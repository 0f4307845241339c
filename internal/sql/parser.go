package sql

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"

	"crackdb"
	"crackdb/internal/core"
)

// parser is a recursive-descent parser pulling tokens from a scanner.
type parser struct {
	scanner
	tok  Token // the lookahead
	err  error // the first scan error; the lookahead is then TokEOF
	lits spans // the numbers parsed so far
}

// spans records where a statement's numeric literals lie in its text.
type spans struct {
	at [memoLits]struct{ start, end int } // the byte spans of the first literals
	n  int                                // the literals counted
}

// memoLits is the most WHERE values a shape the Parser remembers holds.
const memoLits = 8

// Parse parses a single statement (a trailing semicolon is allowed), as
// a fresh Parser does.
func Parse(input string) (Stmt, error) {
	var p Parser
	return p.Parse(input)
}

// Parser parses statements one at a time, as Parse does, and remembers
// the shape of the last one it scanned if that is a SELECT whose every
// numeric literal is a WHERE value. When a text equals the remembered
// one byte for byte outside those literals, its statement is the
// remembered one with the new values, and Parse builds it without
// scanning. Classify takes the same path and hands a range count on
// folded (a *RangeCount): a Parser that remembers a count's shape through
// Classify also remembers rangeCount's verdict on it, so a count of
// that shape is folded from its literals alone, with no statement
// built. The zero value is ready to use. A Parser is not safe for
// concurrent use, and the statements it returns must not be modified.
type Parser struct {
	text   string       // the remembered statement's text
	last   *Select      // its statement; nil if none
	lits   spans        // its literals: Where[k].Val is the one at lits.at[k]
	folds  bool         // Classify remembered last, and rangeCount folds it
	counts []RangeCount // room for the RangeCounts Classify hands out, each slot once
}

// Parse parses a single statement (a trailing semicolon is allowed).
func (m *Parser) Parse(input string) (Stmt, error) { return m.parse(input, false) }

// Classify parses input as Parse does, but a statement rangeCount folds
// comes back as a *RangeCount for Engine.ExecWindow to batch: its
// table, column and inclusive range. A count whose shape the Parser
// remembers is folded from its new literals, with no statement built;
// any other statement is Parse's.
func (m *Parser) Classify(input string) (Stmt, error) { return m.parse(input, true) }

// parse is Parse, and Classify when classify is set.
func (m *Parser) parse(input string, classify bool) (Stmt, error) {
	var vals [memoLits]int64
	if m.match(input, &vals) {
		if classify && m.folds {
			return m.count(m.fold(&vals)), nil
		}
		sel := m.last.clone()
		for k := range sel.Where {
			sel.Where[k].Val = vals[k]
		}
		return sel, nil
	}
	m.last = nil
	var stmt Stmt
	p := parser{scanner: scanner{src: input}}
	n, err := p.parse(func(s Stmt, _ string) { stmt = s })
	if err == nil && n != 1 {
		err = fmt.Errorf("sql: expected one statement, got %d", n)
	}
	if err != nil {
		return nil, err
	}
	var rc RangeCount
	folds := false
	if classify {
		rc, folds = rangeCount(stmt)
	}
	// Each condition holds one literal, so a SELECT with one literal more
	// has a LIMIT.
	if sel, ok := stmt.(*Select); ok && p.lits.n == len(sel.Where) && p.lits.n <= len(p.lits.at) {
		m.text, m.last, m.lits, m.folds = input, sel, p.lits, folds
	}
	if folds {
		return m.count(rc), nil
	}
	return stmt, nil
}

// match reports whether input is the remembered text with other WHERE
// values, and reads them into vals. Outside the literals the bytes are
// the same, and each literal is read by the scanner's rule for a
// number: an optional '-' and a maximal run of digits. So the scanner
// cuts input into the remembered tokens, with only the numbers' texts
// changed: a literal cannot run into the bytes after it (it ends before
// a non-digit in both texts), and the token before it ends where it did
// (no token but a word continues with a digit or a '-', and a word can
// precede a literal only if the literal began with the '-', which is
// the one case refused below). A literal's digits are accumulated as
// they are matched, and one that strconv.ParseInt would refuse — a '-'
// with no digit, or a value outside int64 — refuses the match, so the
// full parse answers it.
func (m *Parser) match(input string, vals *[memoLits]int64) bool {
	if m.last == nil {
		return false
	}
	prev, at, from := m.text, 0, 0 // input[at:] is to match prev[from:]
	for k, lit := range m.lits.at[:m.lits.n] {
		gap := prev[from:lit.start]
		if len(input)-at < len(gap) || input[at:at+len(gap)] != gap {
			return false
		}
		at += len(gap)
		neg := at < len(input) && input[at] == '-'
		if neg {
			at++
		} else if prev[lit.start] == '-' && at > 0 && wordByte(input[at-1]) {
			return false // the digits would continue the word before them
		}
		limit := uint64(math.MaxInt64) // the magnitude int64 holds
		if neg {
			limit++
		}
		var u uint64
		end := at
		for ; end < len(input) && isDigit(input[end]); end++ {
			d := uint64(input[end] - '0')
			if u > (limit-d)/10 {
				return false // out of range
			}
			u = 10*u + d
		}
		if end == at {
			return false // a '-' alone, or no number at all
		}
		if vals[k] = int64(u); neg {
			vals[k] = -vals[k] // -(1<<63) wraps to itself, math.MinInt64
		}
		at, from = end, lit.end
	}
	return input[at:] == prev[from:]
}

// fold is rangeCount's verdict on the remembered count shape with the
// literals vals: crackdb.Interval of its conditions. Each condition is
// folded to its inclusive range by core.Inclusive, as Interval folds,
// and the ranges intersect; an empty one is [1, 0] as Interval gives it.
func (m *Parser) fold(vals *[memoLits]int64) RangeCount {
	rc := RangeCount{Table: m.last.Table, Col: m.last.Where[0].Col, Low: math.MinInt64, High: math.MaxInt64}
	for k, c := range m.last.Where {
		lo, hi, loIncl, hiIncl := int64(math.MinInt64), int64(math.MaxInt64), true, true
		switch v := vals[k]; c.Op {
		case "<":
			hi, hiIncl = v, false
		case "<=":
			hi = v
		case "=", "==":
			lo, hi = v, v
		case ">=":
			lo = v
		case ">":
			lo, loIncl = v, false
		}
		r := core.Inclusive(lo, hi, loIncl, hiIncl)
		rc.Low, rc.High = max(rc.Low, r.Low), min(rc.High, r.High)
	}
	if rc.Low > rc.High {
		rc.Low, rc.High = 1, 0
	}
	return rc
}

// count hands c out from the Parser's room. The room is a chunk of 1,
// then of 4, 16 and 64 slots, and a slot is never written twice, so
// each RangeCount stays what it was when handed out: a window of one count
// costs one small allocation, and a window of 64 counts four, not 64.
func (m *Parser) count(c RangeCount) *RangeCount {
	if len(m.counts) == cap(m.counts) {
		m.counts = make([]RangeCount, 0, min(max(1, 4*cap(m.counts)), 64))
	}
	m.counts = append(m.counts, c)
	return &m.counts[len(m.counts)-1]
}

// SplitScript splits a semicolon-separated script into the text of each
// statement, from its first token up to its ';' or the end of the
// input: each text parses alone to the statement the script held there.
// A syntax error anywhere refuses the whole script.
func SplitScript(input string) ([]string, error) {
	var out []string
	p := parser{scanner: scanner{src: input}}
	if _, err := p.parse(func(_ Stmt, text string) { out = append(out, text) }); err != nil {
		return nil, err
	}
	return out, nil
}

// parse hands each statement of the input, in order, to each with its
// text and counts them. A scan error anywhere in the input outranks a
// parse error, as it did when the whole input was lexed before parsing.
func (p *parser) parse(each func(s Stmt, text string)) (int, error) {
	p.tok, p.err = p.scan()
	for n := 0; ; n++ {
		for p.accept(TokSymbol, ";") {
		}
		if p.tok.Kind == TokEOF {
			return n, p.err
		}
		start := p.tok.Pos
		s, err := p.statement()
		end := p.tok.Pos // the ';' or the end of the input
		if err == nil && !p.accept(TokSymbol, ";") && p.tok.Kind != TokEOF {
			err = p.errorf("expected ';' or end of input, got %q", p.tok.Text)
		}
		if err != nil || p.err != nil {
			for p.next().Kind != TokEOF {
			}
			return n, cmp.Or(p.err, err)
		}
		each(s, p.src[start:end])
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

// number parses a numeric literal and records its span.
func (p *parser) number() (int64, error) {
	t := p.next()
	if t.Kind != TokNumber {
		return 0, fmt.Errorf("sql: offset %d: expected number, got %q", t.Pos, t.Text)
	}
	if l := &p.lits; l.n < len(l.at) {
		l.at[l.n].start, l.at[l.n].end = t.Pos, t.Pos+len(t.Text)
	}
	p.lits.n++
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
		conds, err := p.conjunction(nil)
		if err != nil {
			return nil, err
		}
		del.Where = conds
	}
	return del, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	p.next() // SELECT
	b := &selectBlock{sel: Select{Limit: -1}}
	sel := &b.sel

	// Projection list.
	if p.accept(TokSymbol, "*") {
		sel.Star = true
	} else {
		items := b.items[:0]
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			if items = append(items, item); !p.accept(TokSymbol, ",") {
				break
			}
		}
		sel.Items = items
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
		conds, err := p.conjunction(b.conds[:0])
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

// conjunction appends the conditions of a WHERE clause to out, which
// may hold room for them.
func (p *parser) conjunction(out []crackdb.Cond) ([]crackdb.Cond, error) {
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
			return out, nil
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
