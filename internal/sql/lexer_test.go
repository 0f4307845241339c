package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// keywords maps each keyword of the dialect to itself, so a scanned
// keyword's text is this constant, not an upper-cased copy of the input.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range strings.Fields(`SELECT FROM WHERE AND GROUP BY ORDER LIMIT
		ASC DESC INSERT INTO VALUES CREATE TABLE DROP INT INTEGER COUNT SUM
		MIN MAX BETWEEN AS DELETE`) {
		m[kw] = kw
	}
	return m
}()

// refLex is the lexer the scanner replaced: it built the whole token
// slice before parsing and read each byte as a rune. It is kept here as
// the reference FuzzLex holds the scanner to on ASCII input.
func refLex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case refIsIdentStart(c):
			start := i
			for i < n && refIsIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if _, ok := keywords[up]; ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case unicode.IsDigit(c) || (c == '-' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			i++ // sign or first digit
			for i < n && unicode.IsDigit(rune(input[i])) {
				i++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '*':
			toks = append(toks, Token{Kind: TokSymbol, Text: string(c), Pos: i})
			i++
		case c == '<':
			switch {
			case i+1 < n && input[i+1] == '=':
				toks = append(toks, Token{Kind: TokOp, Text: "<=", Pos: i})
				i += 2
			case i+1 < n && input[i+1] == '>':
				toks = append(toks, Token{Kind: TokOp, Text: "<>", Pos: i})
				i += 2
			default:
				toks = append(toks, Token{Kind: TokOp, Text: "<", Pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TokOp, Text: ">=", Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokOp, Text: ">", Pos: i})
				i++
			}
		case c == '=':
			toks = append(toks, Token{Kind: TokOp, Text: "=", Pos: i})
			i++
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TokOp, Text: "<>", Pos: i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: stray '!' at offset %d", i)
			}
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

func refIsIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func refIsIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.'
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// FuzzLex holds the scanner to the lexer it replaced: on ASCII input the
// same tokens (kind, text, offset) or the same error text, and a scan
// error anywhere in the input is what Parse and SplitScript report, as
// when the whole input was lexed before parsing. On any input the scanner
// must not panic, its offsets must rise, and no token may hold invalid
// UTF-8. On input that parses as a script, each text SplitScript cuts
// parses alone to the statement the whole script held at its index. The
// seeds are under testdata/fuzz/FuzzLex.
func FuzzLex(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		got, err := Lex(input)
		if isASCII(input) {
			want, wantErr := refLex(input)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("Lex(%q) = %v, %v; the reference lexer %v, %v", input, got, err, want, wantErr)
			}
		}
		if err != nil {
			if _, perr := Parse(input); fmt.Sprint(perr) != err.Error() {
				t.Fatalf("Parse(%q) fails with %v, not the scan error %v", input, perr, err)
			}
			if _, perr := SplitScript(input); fmt.Sprint(perr) != err.Error() {
				t.Fatalf("SplitScript(%q) fails with %v, not the scan error %v", input, perr, err)
			}
			return
		}
		for i, tok := range got {
			if !utf8.ValidString(tok.Text) || (i > 0 && tok.Pos <= got[i-1].Pos && tok.Kind != TokEOF) {
				t.Fatalf("Lex(%q): token %d %+v (all: %+v)", input, i, tok, got)
			}
		}
		var stmts []Stmt
		p := parser{scanner: scanner{src: input}}
		if _, err := p.parse(func(s Stmt, _ string) { stmts = append(stmts, s) }); err != nil {
			return
		}
		texts, err := SplitScript(input)
		if err != nil || len(texts) != len(stmts) {
			t.Fatalf("SplitScript(%q) = %q, %v; the script holds %d statements", input, texts, err, len(stmts))
		}
		for i, text := range texts {
			if st, err := Parse(text); err != nil || !reflect.DeepEqual(st, stmts[i]) {
				t.Fatalf("SplitScript(%q) text %d %q parses to %+v, %v; the script held %+v", input, i, text, st, err, stmts[i])
			}
		}
	})
}

// TestLexUTF8: the scanner decodes UTF-8, where the lexer it replaced
// read each byte as a rune and split a letter into two bytes, took a
// no-break space's lead byte for a letter and named continuation bytes as
// characters.
func TestLexUTF8(t *testing.T) {
	toks, err := Lex("CREATE TABLE café (a)")
	if err != nil || len(toks) != 7 || toks[2] != (Token{Kind: TokIdent, Text: "café", Pos: 13}) {
		t.Fatalf("CREATE TABLE café (a): %+v, %v", toks, err)
	}
	if _, err := Parse("CREATE TABLE café (a)"); err != nil {
		t.Fatal(err)
	}
	for _, space := range []string{"\u00a0", "\u2003"} { // no-break space, em space
		input := "SELECT COUNT(*) FROM t WHERE a >= 1" + space + "AND a <= 5"
		stmt, err := Parse(input)
		if err != nil {
			t.Fatalf("%q: %v", input, err)
		}
		if w := stmt.(*Select).Where; len(w) != 2 || w[1].Col != "a" || w[1].Val != 5 {
			t.Fatalf("%q: WHERE %+v", input, w)
		}
	}
	if _, err := Lex("SELECT a\xc2 FROM t"); err == nil || err.Error() != "sql: invalid UTF-8 at offset 8" {
		t.Fatalf("a lone lead byte: %v", err)
	}
	if _, err := Lex("SELECT a© FROM t"); err == nil || err.Error() != "sql: unexpected character '©' at offset 8" {
		t.Fatalf("a non-letter: %v", err)
	}
}

// The pool count and the fetch of the benchmark's steady workloads.
const (
	poolCount = "SELECT COUNT(*) FROM t WHERE c0 >= 123456 AND c0 <= 133455"
	fetch3    = "SELECT c0, c1, c2 FROM t WHERE c0 >= 5000 AND c0 < 6000"
)

// poolCounts are 64 pool counts of distinct ranges, the texts a
// pipelining client sends in one window.
var poolCounts = func() []string {
	out := make([]string, 64)
	for i := range out {
		lo := 1000 + 1500*i
		out[i] = fmt.Sprintf("SELECT COUNT(*) FROM t WHERE c0 >= %d AND c0 <= %d", lo, lo+999)
	}
	return out
}()

// TestParseBudget: Parse allocates the statement it returns and nothing
// per token: a *Select with room for a count's or a fetch's items and
// conditions, once. A Parser that reuses a count's shape allocates the
// same one statement. The lexer that built a token slice, upper-cased
// every word and made a string per symbol read 16 and 21, and a Select
// boxed apart from its Items and Where read 3.
func TestParseBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	for _, c := range []struct {
		stmt string
		max  float64
	}{{poolCount, 1}, {fetch3, 1}} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := Parse(c.stmt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Parse(%q): %.0f allocations", c.stmt, got)
		if got > c.max {
			t.Errorf("Parse(%q) allocates %.0f times, budget %.0f", c.stmt, got, c.max)
		}
	}
	var p Parser
	got := testing.AllocsPerRun(20, func() {
		for _, text := range poolCounts {
			if _, err := p.Parse(text); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(poolCounts))
	t.Logf("a Parser over %d pool counts: %.2f allocations a statement", len(poolCounts), got)
	if got > 1 {
		t.Errorf("a Parser over %d pool counts allocates %.2f times a statement, budget 1", len(poolCounts), got)
	}
}

// TestParserReuses: a Parser reuses the shape of the last statement it
// scanned for a text that differs from it only in WHERE values, and
// scans any other text. The answers themselves are FuzzParser's.
func TestParserReuses(t *testing.T) {
	for _, c := range []struct {
		a, b  string
		reuse bool
	}{
		{poolCount, "SELECT COUNT(*) FROM t WHERE c0 >= -7 AND c0 <= 1234567890", true},
		{fetch3, "SELECT c0, c1, c2 FROM t WHERE c0 >= 5 AND c0 < 6", true},
		{"SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5;", "SELECT COUNT(*) FROM t WHERE a BETWEEN 2 AND 50;", true},
		{"SELECT COUNT(*) FROM t WHERE a >=\u00a05", "SELECT COUNT(*) FROM t WHERE a >=\u00a0-5", true},
		{"SELECT COUNT(*) FROM t", "SELECT COUNT(*) FROM t", true},
		{"SELECT COUNT(*) FROM t WHERE a BETWEEN-5 AND 9", "SELECT COUNT(*) FROM t WHERE a BETWEEN5 AND 9", false},
		{"SELECT COUNT(*) FROM t WHERE a < 5", "SELECT COUNT(*) FROM u WHERE a < 5", false},
		{"SELECT COUNT(*) FROM t WHERE a < 5 -- 7", "SELECT COUNT(*) FROM t WHERE a < 5 -- 8", false},
		{"SELECT a FROM t WHERE a > 1 LIMIT 5", "SELECT a FROM t WHERE a > 1 LIMIT 5", false},
		{"INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (1)", false},
	} {
		var p Parser
		if _, err := p.Parse(c.a); err != nil {
			t.Fatalf("%q: %v", c.a, err)
		}
		shape := p.last // a scan of b replaces it
		got, err := p.Parse(c.b)
		want, wantErr := Parse(c.b)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %q, %q parses to %#v, %v; Parse: %#v, %v", c.a, c.b, got, err, want, wantErr)
		}
		if reused := shape != nil && p.last == shape; reused != c.reuse {
			t.Errorf("after %q, %q: reused %v, want %v", c.a, c.b, reused, c.reuse)
		}
	}
}

// FuzzParser: a Parser that has just parsed a parses b exactly as Parse
// does, to an equal statement or the same error text, whether it reuses
// a's shape or scans b; and then parses a again as Parse does. A second
// Parser classifies the same three texts: a RangeCount it hands out, folded
// from a remembered shape or not, is rangeCount's fold of Parse's
// statement in table, column and bounds, and it folds exactly what
// rangeCount folds; anything else is Parse's statement. The seeds under
// testdata/fuzz/FuzzParser change a literal's length and sign, run a
// literal into letters or the next number, overflow int64 either way,
// change digits inside a comment, and change a BETWEEN, a LIMIT, a
// column, a table, a trailing ';' and a Unicode space; and they fold
// the empty ranges past either end of int64 (> 9223372036854775807,
// < -9223372036854775808), an = and a BETWEEN, write == (which does
// not parse), and keep a <> and a two-column conjunction unfolded.
func FuzzParser(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string) {
		var p, q Parser
		for _, text := range []string{a, b, a} {
			got, err := p.Parse(text)
			want, wantErr := Parse(text)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("after %q, a Parser parses %q to %#v, %v; Parse: %#v, %v", a, text, got, err, want, wantErr)
			}
			st, err := q.Classify(text)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("after %q, Classify(%q) fails with %v; Parse: %v", a, text, err, wantErr)
			}
			if err != nil {
				continue
			}
			rc, folds := rangeCount(want)
			c, folded := st.(*RangeCount)
			switch {
			case folded != folds:
				t.Fatalf("after %q, Classify(%q) folds %v; rangeCount folds %v", a, text, folded, folds)
			case !folded && !reflect.DeepEqual(st, want):
				t.Fatalf("after %q, Classify(%q) returns %#v; Parse: %#v", a, text, st, want)
			case folded && *c != rc:
				t.Fatalf("after %q, Classify(%q) folds to %+v; rangeCount: %+v", a, text, *c, rc)
			}
		}
	})
}

func BenchmarkParse(b *testing.B) {
	for _, c := range []struct{ name, stmt string }{{"count", poolCount}, {"fetch", fetch3}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(c.stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// A window's 64 pool counts through one Parser, as a server parses them.
	b.Run("window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p Parser
			for _, text := range poolCounts {
				if _, err := p.Parse(text); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(poolCounts)), "ns/stmt")
	})
}
