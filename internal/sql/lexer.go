// Package sql implements a small SQL front-end over the cracking store:
// scanner, recursive-descent parser, and executor for the dialect the
// paper's experiments are written in (CREATE TABLE / INSERT / SELECT with
// range predicates, GROUP BY, ORDER BY, LIMIT; SELECT INTO for the §5.1
// SQL-level cracking experiment).
//
// The parser pulls tokens from the scanner on demand, which classifies
// an ASCII byte by one table lookup and a keyword by a switch. A token's
// text is a keyword constant or a slice of the input, and a SELECT is
// built in one block with room for its items and conditions, so parsing
// a count or a fetch allocates once: the statement it returns. A Parser
// goes further for a window of statements: a text that differs from the
// last SELECT it scanned only in WHERE values is not scanned again, and
// costs one copy of that statement, or, through Classify, no statement
// at all when it is a range count: its range is folded from the values.
//
// Input is UTF-8: Unicode letters and digits continue identifiers,
// Unicode spaces separate tokens, and a byte that is not UTF-8 is
// refused at its offset; keywords and operators are ASCII.
//
// The front-end occupies the position the paper assigns the cracker
// component: "between the semantic analyzer and the query optimizer"
// (§3) — WHERE conjunctions are handed to the store as cracking advice
// before any further planning.
package sql

import (
	"fmt"
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

// Byte classes of the ASCII range, one table lookup a byte; a byte at
// or above utf8.RuneSelf starts a rune the scanner decodes. The classes
// from bLetter to bDot are the bytes that continue a word.
const (
	bOther   uint8 = iota // refused
	bSpace                // separates tokens
	bLetter               // starts and continues a word; may spell a keyword
	bUnder                // '_': starts and continues a word
	bDigit                // starts a number; continues a word
	bDot                  // '.': continues a word (r.a)
	bSymbol               // ( ) , ; *
	bCompare              // < = >
	bMinus                // a comment, a sign or an error
	bBang                 // != or an error
)

var byteClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		switch {
		case unicode.IsSpace(rune(c)):
			t[c] = bSpace
		case 'a' <= c|0x20 && c|0x20 <= 'z':
			t[c] = bLetter
		case '0' <= c && c <= '9':
			t[c] = bDigit
		}
	}
	t['_'], t['.'], t['-'], t['!'] = bUnder, bDot, bMinus, bBang
	for _, c := range "(),;*" {
		t[c] = bSymbol
	}
	for _, c := range "<=>" {
		t[c] = bCompare
	}
	return t
}()

// scanner yields the tokens of src one at a time, on demand.
type scanner struct {
	src string
	off int // the next byte to scan
}

// scan returns the next token: TokEOF at the end of the input, and the
// zero Token, also TokEOF, with an error.
func (s *scanner) scan() (Token, error) {
	src, i := s.src, s.off
	for i < len(src) {
		class := bLetter // of a rune: a letter, a space or refused
		if c := src[i]; c < utf8.RuneSelf {
			class = byteClass[c]
		} else {
			r, size := utf8.DecodeRuneInString(src[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				return Token{}, fmt.Errorf("sql: invalid UTF-8 at offset %d", i)
			case unicode.IsSpace(r):
				i += size
				continue
			case !unicode.IsLetter(r):
				return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", r, i)
			}
		}
		start := i
		switch class {
		case bSpace:
			i++
			continue
		case bLetter, bUnder:
			return s.word(i), nil
		case bMinus:
			if i+1 < len(src) && src[i+1] == '-' { // line comment
				for i < len(src) && src[i] != '\n' {
					i++
				}
				continue
			}
			if i+1 == len(src) || !isDigit(src[i+1]) {
				return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", '-', i)
			}
			fallthrough
		case bDigit:
			for i++; i < len(src) && isDigit(src[i]); i++ { // past the sign or first digit
			}
			s.off = i
			return Token{Kind: TokNumber, Text: src[start:i], Pos: start}, nil
		case bSymbol:
			s.off = i + 1
			return Token{Kind: TokSymbol, Text: src[start:s.off], Pos: start}, nil
		case bCompare: // <= <> >= take a second byte
			c := src[i]
			if i++; c != '=' && i < len(src) && (src[i] == '=' || c == '<' && src[i] == '>') {
				i++
			}
			s.off = i
			return Token{Kind: TokOp, Text: src[start:i], Pos: start}, nil
		case bBang:
			if i+1 < len(src) && src[i+1] == '=' {
				s.off = i + 2
				return Token{Kind: TokOp, Text: "<>", Pos: start}, nil
			}
			return Token{}, fmt.Errorf("sql: stray '!' at offset %d", i)
		default:
			return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", rune(src[i]), i)
		}
	}
	s.off = i
	return Token{Kind: TokEOF, Pos: len(src)}, nil
}

// word scans the identifier or keyword at offset start. A word of ASCII
// letters no longer than the longest keyword is upper-cased into a fixed
// buffer and looked up as a keyword; an identifier keeps its spelling.
func (s *scanner) word(start int) Token {
	src, i := s.src, start
	letters := true
	for i < len(src) {
		if c := src[i]; c < utf8.RuneSelf {
			class := byteClass[c]
			if class < bLetter || class > bDot {
				break
			}
			letters = letters && class == bLetter
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[i:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		letters = false
		i += size
	}
	s.off = i
	var up [len("INTEGER")]byte // the longest keyword
	if n := i - start; letters && n <= len(up) {
		for k := range n {
			up[k] = src[start+k] &^ 0x20
		}
		if kw := keyword(up[:n]); kw != "" {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}
		}
	}
	return Token{Kind: TokIdent, Text: src[start:i], Pos: start}
}

// keyword returns the keyword an upper-cased word spells, as a constant
// rather than a copy of the input, or "" if it spells none.
func keyword(up []byte) string {
	switch string(up) {
	case "SELECT":
		return "SELECT"
	case "FROM":
		return "FROM"
	case "WHERE":
		return "WHERE"
	case "AND":
		return "AND"
	case "GROUP":
		return "GROUP"
	case "BY":
		return "BY"
	case "ORDER":
		return "ORDER"
	case "LIMIT":
		return "LIMIT"
	case "ASC":
		return "ASC"
	case "DESC":
		return "DESC"
	case "INSERT":
		return "INSERT"
	case "INTO":
		return "INTO"
	case "VALUES":
		return "VALUES"
	case "CREATE":
		return "CREATE"
	case "TABLE":
		return "TABLE"
	case "DROP":
		return "DROP"
	case "INT":
		return "INT"
	case "INTEGER":
		return "INTEGER"
	case "COUNT":
		return "COUNT"
	case "SUM":
		return "SUM"
	case "MIN":
		return "MIN"
	case "MAX":
		return "MAX"
	case "BETWEEN":
		return "BETWEEN"
	case "AS":
		return "AS"
	case "DELETE":
		return "DELETE"
	}
	return ""
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// wordByte reports whether a word may continue over byte c: an ASCII
// letter, digit, '_' or '.', or any byte of a multi-byte rune.
func wordByte(c byte) bool {
	return c >= utf8.RuneSelf || bLetter <= byteClass[c] && byteClass[c] <= bDot
}
