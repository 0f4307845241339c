package sql

// Hooks for the package's tests: the parser pulls tokens from a scanner
// one at a time, and only the tests want them all at once.

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
