package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

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
// error anywhere in the input is what Parse and ParseScript report, as
// when the whole input was lexed before parsing. On any input the scanner
// must not panic, its offsets must rise, and no token may hold invalid
// UTF-8. The seeds are under testdata/fuzz/FuzzLex.
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
			if _, perr := ParseScript(input); fmt.Sprint(perr) != err.Error() {
				t.Fatalf("ParseScript(%q) fails with %v, not the scan error %v", input, perr, err)
			}
			return
		}
		for i, tok := range got {
			if !utf8.ValidString(tok.Text) || (i > 0 && tok.Pos <= got[i-1].Pos && tok.Kind != TokEOF) {
				t.Fatalf("Lex(%q): token %d %+v (all: %+v)", input, i, tok, got)
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
		if w := stmt.(Select).Where; len(w) != 2 || w[1].Col != "a" || w[1].Val != 5 {
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

// TestParseBudget: Parse allocates the statement it returns and nothing
// per token. A count is the boxed Select, its Items and its Where; a
// fetch the same. The lexer that built a token slice, upper-cased every
// word and made a string per symbol read 16 and 21.
func TestParseBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	for _, c := range []struct {
		stmt string
		max  float64
	}{{poolCount, 3}, {fetch3, 5}} {
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
}
