package workload

// Span returns the per-query range width the config resolved to. Only the
// package's tests read it: a caller sees the width in each Query.
func (g *Generator) Span() int64 { return g.span }
