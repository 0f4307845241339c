// Package sql implements a small SQL front-end over the cracking store:
// scanner, recursive-descent parser, and executor for the dialect the
// paper's experiments are written in (CREATE TABLE / INSERT / SELECT with
// range predicates, GROUP BY, ORDER BY, LIMIT; SELECT INTO for the §5.1
// SQL-level cracking experiment).
//
// The parser pulls tokens from the scanner on demand; a token's text is
// a keyword constant or a slice of the input, so a parse allocates only
// the statement it returns. Input is UTF-8: Unicode letters and digits
// continue identifiers, Unicode spaces separate tokens, and a byte that
// is not UTF-8 is refused at its offset; keywords and operators are ASCII.
//
// The front-end occupies the position the paper assigns the cracker
// component: "between the semantic analyzer and the query optimizer"
// (§3) — WHERE conjunctions are handed to the store as cracking advice
// before any further planning.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexer output.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokSymbol // ( ) , ; *
	TokOp     // < <= = >= > <>
)

// Token is one lexical unit. Keywords are upper-cased; identifiers keep
// their original spelling.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input, for error messages
}

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

// scanner yields the tokens of src one at a time, on demand.
type scanner struct {
	src string
	off int // the next byte to scan
}

// Lex tokenizes the whole input; errors carry the offending byte offset.
// The parser does not call it: it pulls tokens from a scanner.
func Lex(input string) ([]Token, error) {
	s := scanner{src: input}
	var toks []Token
	for {
		t, err := s.scan()
		if err != nil {
			return nil, err
		}
		if toks = append(toks, t); t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// scan returns the next token: TokEOF at the end of the input, and the
// zero Token, also TokEOF, with an error.
func (s *scanner) scan() (Token, error) {
	src := s.src
	for s.off < len(src) {
		i := s.off
		c, size := rune(src[i]), 1
		if c >= utf8.RuneSelf {
			if c, size = utf8.DecodeRuneInString(src[i:]); c == utf8.RuneError && size == 1 {
				return Token{}, fmt.Errorf("sql: invalid UTF-8 at offset %d", i)
			}
		}
		switch {
		case unicode.IsSpace(c):
			s.off += size
		case c == '-' && i+1 < len(src) && src[i+1] == '-': // line comment
			for s.off < len(src) && src[s.off] != '\n' {
				s.off++
			}
		case c == '_' || unicode.IsLetter(c):
			return s.word(), nil
		case isDigit(c) || (c == '-' && i+1 < len(src) && isDigit(rune(src[i+1]))):
			s.off++ // sign or first digit
			for s.off < len(src) && isDigit(rune(src[s.off])) {
				s.off++
			}
			return Token{Kind: TokNumber, Text: src[i:s.off], Pos: i}, nil
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '*':
			s.off++
			return Token{Kind: TokSymbol, Text: src[i:s.off], Pos: i}, nil
		case c == '<' || c == '>' || c == '=': // <= <> >= take a second byte
			if s.off++; c != '=' && s.off < len(src) && (src[s.off] == '=' || c == '<' && src[s.off] == '>') {
				s.off++
			}
			return Token{Kind: TokOp, Text: src[i:s.off], Pos: i}, nil
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			s.off += 2
			return Token{Kind: TokOp, Text: "<>", Pos: i}, nil
		case c == '!':
			return Token{}, fmt.Errorf("sql: stray '!' at offset %d", i)
		default:
			return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	return Token{Kind: TokEOF, Pos: len(src)}, nil
}

// word scans the identifier or keyword at s.off. A word of ASCII letters
// no longer than the longest keyword is upper-cased into a fixed buffer
// and looked up as a keyword; an identifier keeps its spelling.
func (s *scanner) word() Token {
	src, start := s.src, s.off
	var up [len("INTEGER")]byte // the longest keyword
	letters := true
	for s.off < len(src) {
		if c := src[s.off]; c < utf8.RuneSelf {
			if 'a' <= c|0x20 && c|0x20 <= 'z' {
				if k := s.off - start; k < len(up) {
					up[k] = c &^ 0x20
				}
			} else if isDigit(rune(c)) || c == '_' || c == '.' {
				letters = false
			} else {
				break
			}
			s.off++
			continue
		}
		c, size := utf8.DecodeRuneInString(src[s.off:])
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) {
			break
		}
		letters = false
		s.off += size
	}
	if n := s.off - start; letters && n <= len(up) {
		if kw, ok := keywords[string(up[:n])]; ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}
		}
	}
	return Token{Kind: TokIdent, Text: src[start:s.off], Pos: start}
}

func isDigit(c rune) bool { return '0' <= c && c <= '9' }
