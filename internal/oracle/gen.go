package oracle

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"crackdb"
	"crackdb/internal/strategy"
	"crackdb/internal/workload"
)

// Config shapes a generated stream.
type Config struct {
	Seed        int64
	Ops         int              // ops drawn after the opening load
	Load        int              // rows the opening INSERT loads into t
	Domain      int64            // keys fall in [0, Domain), or above it
	Pattern     workload.Pattern // the key stream of range queries (default random)
	Selectivity float64          // fraction of the domain a range spans
	MaxBatch    int              // rows per later INSERT, at most
	Mix         Mix
	Bad         int // percent of ops turned invalid or degenerate
}

// everything draws every kind of op; fuzz streams use it.
var everything = Mix{Create: 2, Drop: 1, Insert: 6, Delete: 4, Count: 12, Select: 6, Fetch: 6,
	Refetch: 4, CountBatch: 6, Group: 2, Flip: 2, Reboot: 1}

// The tables a stream creates: t has a key k, an id a unique within the
// stream, and b and c of small domains; u is t's first two columns.
var (
	schemas = map[string][]string{"t": {"k", "a", "b", "c"}, "u": {"k", "a"}}
	spreads = map[string]int64{"b": 64, "c": 500}
)

// Gen emits an op stream from a source of decisions: a seeded PRNG (New)
// or a fuzzer's bytes (Decode). Row values come from a PRNG either way,
// so the bytes go to the stream's shape. Gen reads the model it runs
// beside, to aim ops at results that exist.
type Gen struct {
	cfg           Config
	src           interface{ Intn(n int) int }
	rng           *rand.Rand
	keys          *workload.Generator
	left          int   // ops still to draw
	serial, above int64 // the next id; keys handed out above the domain
	started       bool
	queue         []Op
	recent        []crackdb.Range // the last batch's fresh ranges, sent again as hits
}

// New returns a seeded generator.
func New(cfg Config) *Gen {
	r := rand.New(rand.NewSource(cfg.Seed))
	return &Gen{cfg: cfg, src: r, rng: r, left: cfg.Ops}
}

// Ops is a stream of exactly ops, over a model that holds their tables.
func Ops(ops ...Op) *Gen { return &Gen{queue: ops, started: true} }

// bytesSource reads each decision from the next bytes, as many as n
// needs, modulo n; zeros once they run out.
type bytesSource struct{ b []byte }

func (s *bytesSource) Intn(n int) int {
	v := 0
	for k := n - 1; k > 0 && len(s.b) > 0; k >>= 8 {
		v, s.b = v<<8|int(s.b[0]), s.b[1:]
	}
	return v % n
}

// Decode returns the stream a fuzz input spells: its first bytes pick the
// key pattern and seed the row values, the rest drive op after op until
// they run out. A quarter of its ops are invalid or degenerate.
func Decode(data []byte) *Gen {
	src := &bytesSource{data}
	cfg := Config{Ops: 200, Load: 200, Domain: 1000, Pattern: workload.Patterns()[src.Intn(len(workload.Patterns()))],
		Selectivity: 0.05, MaxBatch: 1000, Mix: everything, Bad: 25}
	return &Gen{cfg: cfg, src: src, rng: rand.New(rand.NewSource(int64(src.Intn(1 << 16)))), left: cfg.Ops}
}

func (g *Gen) r(n int) int { return g.src.Intn(n) }

// Next returns the stream's next op, or false at its end. A stream over a
// model without table t opens by creating and loading it; over a model
// another stream filled, it goes on from there.
func (g *Gen) Next(m *Model) (Op, bool) {
	if !g.started && m.tables["t"] == nil {
		g.queue = g.create("t")
	}
	g.started = true
	if bs, ok := g.src.(*bytesSource); len(g.queue) == 0 && (g.left == 0 || ok && len(bs.b) == 0) {
		return Op{}, false
	}
	if len(g.queue) == 0 {
		g.left--
		g.queue = g.draw(m)
	}
	op := g.queue[0]
	g.queue = g.queue[1:]
	return op, true
}

// create is CREATE TABLE name and its opening load.
func (g *Gen) create(name string) []Op {
	return []Op{{Kind: Create, Table: name, Cols: slices.Clone(schemas[name])},
		{Kind: Insert, Table: name, Rows: g.rows(schemas[name], g.cfg.Load)}}
}

func (g *Gen) draw(m *Model) []Op {
	total := 0
	for _, w := range g.cfg.Mix {
		total += w
	}
	op := Op{Table: "t"}
	for n := g.r(total); n >= g.cfg.Mix[op.Kind]; op.Kind++ {
		n -= g.cfg.Mix[op.Kind]
	}
	if g.cfg.Mix[Create] > 0 && g.r(4) == 0 {
		op.Table = "u"
	}
	cols := schemas[op.Table]
	if t := m.tables[op.Table]; t != nil {
		cols = t.cols
	}
	pick := func() string { return cols[g.r(len(cols))] }
	key := func() string { return []string{"k", "k", "k", pick()}[g.r(4)] } // mostly the key
	proj := func(cols []string) []string {                                  // one to three columns, repeats allowed
		out := make([]string, 1+g.r(3))
		for i := range out {
			out[i] = cols[g.r(len(cols))]
		}
		return out
	}
	if op.Kind == Refetch && len(m.held) == 0 {
		op.Kind = Fetch
	}
	ops := []Op{op}
	switch op := &ops[0]; op.Kind {
	case Create:
		ops = g.create(op.Table)
	case Drop:
		if g.r(2) == 0 { // and create the name again
			ops = append(ops, g.create(op.Table)...)
		}
	case Insert:
		op.Rows = g.rows(cols, 1+g.r(1+g.r(g.cfg.MaxBatch)))
	case Delete: // a narrow range on one column, alone or before a term
		c := pick()
		v := g.val(c)
		op.Conds = Op{Col: c, Ranges: []crackdb.Range{{Low: v, High: v + int64(g.r(16))}}}.terms()[0]
		if g.r(2) == 0 {
			op.Conds = append(op.Conds, g.term(cols)...)
		}
	case Count:
		if g.r(4) > 0 {
			op.Conds = g.term(cols)
		} else {
			op.Col, op.Ranges = "k", []crackdb.Range{g.keyRange()}
		}
	case Select:
		op.Conds, op.Cols = g.term(cols), proj(cols)
	case Fetch:
		op.Col, op.Ranges, op.Cols = key(), []crackdb.Range{g.keyRange()}, proj(cols)
	case Refetch:
		op.Held = len(m.held) - 1 - g.r(min(4, len(m.held)))
		op.Cols = proj(m.held[op.Held].cols)
		if g.r(2) == 0 {
			ops = append(g.churn(m.held[op.Held]), *op)
		}
	case CountBatch:
		op.Col, op.Ranges = key(), g.batch()
	case Group:
		op.Col = []string{cols[min(2, len(cols)-1)], key()}[g.r(2)]
	case Flip:
		names := append(strategy.Names(), "")
		op.Col, op.Name = "k", names[g.r(len(names))]
	}
	if g.r(100) < g.cfg.Bad {
		g.corrupt(&ops[0])
	}
	return ops
}

// rows draws n rows: keys inside the domain with the int64 extremes mixed
// in, or (a quarter of the batches) ascending above it; a fresh id; and
// small-domain values.
func (g *Gen) rows(cols []string, n int) [][]int64 {
	above := g.r(4) == 0
	rows := make([][]int64, n)
	for i := range rows {
		row := make([]int64, len(cols))
		switch {
		case above:
			g.above++
			row[0] = g.cfg.Domain + g.above
		case g.rng.Intn(64) == 0:
			row[0] = []int64{math.MinInt64, math.MaxInt64}[g.rng.Intn(2)]
		default:
			row[0] = g.rng.Int63n(g.cfg.Domain)
		}
		for j, c := range cols[1:] {
			if row[j+1] = g.serial; c != "a" {
				row[j+1] = g.rng.Int63n(cmp.Or(spreads[c], 1000))
			}
		}
		rows[i], g.serial = row, g.serial+1
	}
	return rows
}

// val draws a constant to compare col with: mostly among the column's
// values or just past them, sometimes an int64 extreme.
func (g *Gen) val(col string) int64 {
	switch g.r(24) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	}
	spread := map[string]int64{"k": g.cfg.Domain, "a": g.serial}[col] + spreads[col]
	return int64(g.r(int(spread)+20)) - 10
}

// keyRange is the pattern's next range, inclusive.
func (g *Gen) keyRange() crackdb.Range {
	q, ok := workload.Query{}, false
	if g.keys != nil {
		q, ok = g.keys.Next()
	}
	if !ok {
		var err error
		g.keys, err = workload.New(cmp.Or(g.cfg.Pattern, workload.Random), workload.Config{Domain: g.cfg.Domain,
			Count: max(g.cfg.Ops, 64), Selectivity: g.cfg.Selectivity, Seed: int64(g.r(1 << 16))})
		if err != nil {
			panic(err) // the Config is the test's
		}
		q, _ = g.keys.Next()
	}
	return crackdb.Range{Low: q.Lo, High: q.Hi - 1}
}

// term is zero to three conditions, half the time behind a key range from
// the pattern. Columns, operators and constants are drawn freely, so
// repeats on one column and empty ranges happen.
func (g *Gen) term(cols []string) []crackdb.Cond {
	var conds []crackdb.Cond
	n := g.r(4)
	if g.r(2) == 0 {
		conds, n = Op{Col: "k", Ranges: []crackdb.Range{g.keyRange()}}.terms()[0], g.r(2)
	}
	for ; n > 0; n-- {
		c := cols[g.r(len(cols))]
		conds = append(conds, crackdb.Cond{Col: c, Op: sqlOps[g.r(len(sqlOps))], Val: g.val(c)})
	}
	return conds
}

// batch is up to sixteen ranges interleaving the last batch's fresh
// ranges — hits once a column has converged — with fresh ones that crack,
// now and then one that starts off the domain.
func (g *Gen) batch() []crackdb.Range {
	var out, fresh []crackdb.Range
	for i, n := 0, g.r(17); len(out) < n; i++ {
		if i%2 == 0 && i/2 < len(g.recent) {
			out = append(out, g.recent[i/2])
			continue
		}
		if fresh = append(fresh, g.keyRange()); g.r(8) == 0 {
			v := g.val("k")
			fresh[len(fresh)-1] = crackdb.Range{Low: v, High: v + int64(g.r(100))}
		}
		out = append(out, fresh[len(fresh)-1])
	}
	g.recent = fresh
	return out
}

// churn swaps a tuple a held result selected for a new one in its range:
// it inserts the newcomer, then deletes the old tuple by its id. The
// range keeps its count, so only a staleness guard that looks past the
// count can tell it no longer holds the rows the result selected.
func (g *Gen) churn(h held) []Op {
	if len(h.rows) == 0 || len(h.cols) < 2 || h.cols[1] != "a" {
		return nil
	}
	j, old := slices.Index(h.cols, h.col), h.rows[g.r(len(h.rows))]
	row := g.rows(h.cols, 1)[0]
	row[j] = old[j]
	return []Op{{Kind: Insert, Table: h.name, Rows: [][]int64{row}},
		{Kind: Delete, Table: h.name, Conds: []crackdb.Cond{{Col: "a", Op: "=", Val: old[1]}}}}
}

// corrupt turns an op invalid or degenerate: an unknown table or column,
// a bad operator, an unsatisfiable key range in front of a bad
// condition, inverted ranges, a row of the wrong arity, or a schema that
// is empty or names a column twice.
func (g *Gen) corrupt(op *Op) {
	switch g.r(7) {
	case 0:
		op.Table = "x"
	case 1:
		switch {
		case len(op.Conds) > 0:
			op.Conds[g.r(len(op.Conds))].Col = "z"
		case op.Col != "":
			op.Col = "z"
		case len(op.Cols) > 0:
			op.Cols[g.r(len(op.Cols))] = "z"
		}
	case 2:
		op.Conds = append(op.Conds, crackdb.Cond{Col: "k", Op: "~", Val: 1})
	case 3:
		v, bad := g.val("k"), []crackdb.Cond{{Col: "z", Op: "=", Val: 1}, {Col: "k", Op: "=>", Val: 1}}[g.r(2)]
		op.Conds = append([]crackdb.Cond{{Col: "k", Op: ">", Val: v}, {Col: "k", Op: "<", Val: v}}, append(op.Conds, bad)...)
	case 4:
		for i, r := range op.Ranges {
			op.Ranges[i] = crackdb.Range{Low: r.High + 1, High: r.Low}
		}
	case 5:
		if len(op.Rows) > 0 {
			i := g.r(len(op.Rows))
			op.Rows[i] = op.Rows[i][:g.r(len(op.Rows[i]))]
		}
	case 6:
		*op = Op{Kind: Create, Table: "w", Cols: []string{"a", "b", "a"}[:g.r(4)]}
	}
}
