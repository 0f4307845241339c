package oracle

import (
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crackdb"
	"crackdb/internal/core"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

// A Posture applies ops to one backend the way some caller would, and
// spells each answer the way Model.Do does. ok is false for an op the
// posture cannot express — a bad operator through SQL, a held result
// over the wire — which it skips rather than answering something else.
type Posture interface {
	Name() string
	Do(op Op) (answer string, ok bool)
}

// Run draws ops from g until it ends, answers each on the model and on
// every posture, and fails t at the first answer that differs from the
// model's. It returns the model, which a later Run may go on with.
func Run(t testing.TB, g *Gen, m *Model, ps ...Posture) *Model {
	t.Helper()
	if m == nil {
		m = NewModel()
	}
	for i := 0; ; i++ {
		op, ok := g.Next(m)
		if !ok {
			return m
		}
		want, check := m.Do(op)
		for _, p := range ps {
			if got, ok := p.Do(op); ok && check && got != want {
				t.Fatalf("op %d: %v\n%s answered:\n%.600s\nthe model answers:\n%.600s", i, op, p.Name(), got, want)
			}
		}
	}
}

// Backend is the posture of a store or a router, whose row sets must
// come back canonical: a store's own rows, in crack order, are sorted as
// the router's merge yields them. The calls both share, signature for
// signature, go through shared; the rest to the concrete type: a store
// answers a single-range Count or Fetch through Store.Count or
// Store.Select, whose payload vectors a Fetch reaches, and a router
// through CountWhere or SelectWhere on the same range; each counts a
// batch with its own CountBatch.
type Backend struct {
	Store  *crackdb.Store // nil for a router; a reboot replaces it
	Router *shard.Store   // nil for a store; a reboot replaces it
	// Dir, when set, makes Reboot save a store there and open it again
	// (Save and Open), or checkpoint a router opened durable on Dir and
	// boot it from its delta chain.
	Dir  string
	held []crackdb.Rows
}

// Single is the posture of a store.
func Single(s *crackdb.Store) *Backend { return &Backend{Store: s} }

// Router is the posture of a router.
func Router(r *shard.Store) *Backend { return &Backend{Router: r} }

func (p *Backend) Name() string {
	if p.Router != nil {
		return fmt.Sprintf("router of %d shards", p.Router.ShardCount())
	}
	return "store"
}

// shared is what *crackdb.Store and *shard.Store both offer, with the
// same signatures, of the calls an op makes.
type shared interface {
	CreateTable(name string, cols ...string) error
	DropTable(name string) error
	InsertRows(table string, rows [][]int64) error
	Delete(table string, conds ...crackdb.Cond) (int, error)
	CountWhere(table string, conds ...crackdb.Cond) (int, error)
	GroupBy(table, col string) ([]crackdb.GroupInfo, error)
}

func (p *Backend) Do(op Op) (string, bool) {
	var b shared = p.Router
	if p.Router == nil {
		b = p.Store
	}
	ans, err := "ok", error(nil)
	count := func(n int, e error) { ans, err = fmt.Sprintf("count %d", n), e }
	rows := func(rs []crackdb.Rows, e error) {
		if err = e; e == nil {
			ans, err = rowSets(rs, op.Cols)
		}
	}
	switch op.Kind {
	case Create:
		err = b.CreateTable(op.Table, op.Cols...)
	case Drop:
		err = b.DropTable(op.Table)
	case Insert:
		err = b.InsertRows(op.Table, op.Rows)
	case Delete:
		n, e := b.Delete(op.Table, op.Conds...)
		ans, err = fmt.Sprintf("deleted %d", n), e
	case Count:
		if op.Col == "" || p.Router != nil {
			count(b.CountWhere(op.Table, op.terms()[0]...))
		} else {
			count(p.Store.Count(op.Table, op.Col, op.Ranges[0].Low, op.Ranges[0].High))
		}
	case Select:
		r, e := p.selectWhere(op.Table, op.Conds)
		rows([]crackdb.Rows{r}, e)
	case Fetch:
		r, e := p.fetch(op)
		if e == nil {
			p.held = append(p.held, r)
		}
		rows([]crackdb.Rows{r}, e)
	case Refetch:
		rows(p.held[op.Held:op.Held+1], nil)
	case CountBatch:
		var ns []int
		if p.Router != nil {
			ns, err = p.Router.CountBatch(op.Table, op.Col, op.Ranges)
		} else {
			ns, err = p.Store.CountBatch(op.Table, op.Col, op.Ranges)
		}
		ans = counts(ns)
	case Group:
		gs, e := b.GroupBy(op.Table, op.Col)
		groups := make([][]int64, len(gs))
		for i, g := range gs {
			groups[i] = []int64{g.Value, int64(g.Count)}
		}
		ans, err = render(groups), e
	case Flip:
		flip(b, op)
	case Reboot:
		if p.Dir == "" {
			return "", false
		}
		err = p.reboot()
	}
	return answer(ans, err), true
}

// selectWhere is the conjunction's selection, its rows in canonical
// order.
func (p *Backend) selectWhere(table string, conds []crackdb.Cond) (crackdb.Rows, error) {
	if p.Router != nil {
		return p.Router.SelectWhere(table, conds...)
	}
	r, err := p.Store.SelectWhere(table, conds...)
	if err != nil {
		return nil, err
	}
	return sorted{r}, nil
}

// fetch is a Fetch's selection, its rows in canonical order.
func (p *Backend) fetch(op Op) (crackdb.Rows, error) {
	if p.Router != nil {
		return p.selectWhere(op.Table, op.terms()[0])
	}
	r, err := p.Store.Select(op.Table, op.Col, op.Ranges[0].Low, op.Ranges[0].High)
	if err != nil {
		return nil, err
	}
	return sorted{r}, nil
}

// reboot saves the store, or checkpoints the router, and opens it again
// from disk. An image carries no crack posture, so the backend sets the
// strategy it ran under again after the open, as a server applies its
// flags after every boot.
func (p *Backend) reboot() (err error) {
	if p.Router == nil {
		name, seed := posture(p.Store)
		path := filepath.Join(p.Dir, "store.crk")
		if err = p.Store.Save(path); err == nil {
			p.Store, err = crackdb.Open(path)
		}
		if err == nil && name != "" {
			err = p.Store.SetCrackStrategy(name, seed)
		}
		return err
	}
	// Shard 0 runs under the router's own seed (shard.Store.SetCrackStrategy).
	name, seed := posture(p.Router.Shard(0))
	if _, err = p.Router.Checkpoint(false); err == nil {
		err = p.Router.CloseWAL()
	}
	if err == nil {
		p.Router, _, err = shard.OpenDurable(p.Dir, shard.Options{})
	}
	if err == nil && name != "" {
		err = p.Router.SetCrackStrategy(name, seed)
	}
	return err
}

// posture is the strategy name and seed a store was last set to ("" and
// 0 if never). That is its owner's state: no image carries it and no
// method returns it, so the oracle reads the store's own fields.
func posture(s *crackdb.Store) (string, int64) {
	v := reflect.ValueOf(s).Elem()
	return v.FieldByName("strategyName").String(), v.FieldByName("strategySeed").Int()
}

// answer is ans, or the error's text when the call failed.
func answer(ans string, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	return ans
}

// sorted is a store's own Result with its rows, which come back in
// crack order, sorted canonically, as the router's merge yields them.
type sorted struct{ *crackdb.Result }

func (r sorted) Rows(cols ...string) ([][]int64, error) {
	rows, err := r.Result.Rows(cols...)
	core.SortRows(rows)
	return rows, err
}

// flip forces a strategy on a column, or releases it, where autotune
// runs; elsewhere it sets the strategy of columns cracked later. Errors
// are dropped: no answer depends on a flip, so none is compared.
func flip(b any, op Op) {
	st, ok := b.(interface {
		ForceStrategy(table, col, name string) error
		ReleaseStrategy(table, col string) error
		SetCrackStrategy(name string, seed int64) error
	})
	switch {
	case !ok:
	case op.Name == "":
		_ = st.ReleaseStrategy(op.Table, op.Col)
	case st.ForceStrategy(op.Table, op.Col, op.Name) != nil:
		_ = st.SetCrackStrategy(op.Name, 7)
	}
}

func rowSets(rs []crackdb.Rows, cols []string) (string, error) {
	answers := make([]string, len(rs))
	for i, r := range rs {
		rows, err := r.Rows(cols...)
		if err == nil && r.Count() != len(rows) {
			err = fmt.Errorf("Count is %d, Rows returns %d", r.Count(), len(rows))
		}
		if err != nil {
			return "", err
		}
		answers[i] = render(rows)
	}
	return strings.Join(answers, batchSep), nil
}

func counts(ns []int) string {
	answers := make([]string, len(ns))
	for i, n := range ns {
		answers[i] = fmt.Sprintf("count %d", n)
	}
	return strings.Join(answers, batchSep)
}

// Ordered is the batch ≡ sequential posture: two stores built alike see
// every op, but a batch runs as one CountBatch on Batched while Twin
// counts its ranges one by one. A batch answers its ranges in submission
// order, so its physical side effects are those of the sequential
// counts: besides the counts, after every batch both stores' cracker
// columns of the table must agree in every counter, their piece counts
// and their strategies.
type Ordered struct{ Batched, Twin *Backend }

func (p Ordered) Name() string { return "ordered batch" }

func (p Ordered) Do(op Op) (string, bool) {
	if op.Kind != CountBatch {
		ans, ok := p.Batched.Do(op)
		if twin, _ := p.Twin.Do(op); twin != ans {
			return "the twin answers " + twin, true
		}
		return ans, ok
	}
	b, tw := p.Batched.Store, p.Twin.Store
	ns, err := b.CountBatch(op.Table, op.Col, op.Ranges)
	for i, r := range op.Ranges {
		if n, _ := tw.Count(op.Table, op.Col, r.Low, r.High); err == nil && n != ns[i] {
			return fmt.Sprintf("range %d: the batch counts %d, the twin %d", i, ns[i], n), true
		}
	}
	bs, _ := b.CrackedColumnStats(op.Table)
	if ts, _ := tw.CrackedColumnStats(op.Table); !maps.Equal(bs, ts) {
		return fmt.Sprintf("the batch leaves the columns %+v, the twin %+v", bs, ts), true
	}
	return answer(counts(ns), err), true
}

// SQL is the posture of a SQL front end: an op becomes statements, and
// Exec returns one Reply per statement. Engine builds one over a
// sql.Engine; a wire client fits the same Exec.
type SQL struct {
	Label  string
	Exec   func(stmts ...string) []Reply
	Reboot func() error // nil: the posture skips reboots
	B      any          // nil: the posture skips flips
}

// Reply is one statement's rows, message or error text.
type Reply struct {
	Rows     [][]int64
	Msg, Err string
}

// Engine is the posture of a sql.Engine over r. An op's statements run
// as one ExecWindow, so a batch op's counts take the engine's fold into
// CountBatch, as a pipelining client's do, and parse through one
// sql.Parser's Classify, as a server's window does, so a count of a
// shape the Parser remembers is folded from its literals. A statement
// that does not parse answers its error and ends the op, as Do reads no
// further.
func Engine(label string, r *shard.Store) *SQL {
	e := sql.NewEngineOn(r)
	return &SQL{Label: label, B: r, Exec: func(texts ...string) []Reply {
		stmts := make([]sql.Stmt, len(texts))
		var parser sql.Parser
		for i, text := range texts {
			var err error
			if stmts[i], err = parser.Classify(text); err != nil {
				return []Reply{{Err: err.Error()}}
			}
		}
		out := make([]Reply, len(stmts))
		for i, res := range e.ExecWindow(stmts) {
			if res.Err != nil {
				out[i].Err = res.Err.Error()
			} else {
				out[i] = Reply{Rows: res.Set.Rows, Msg: res.Set.Message}
			}
		}
		return out
	}}
}

func (p *SQL) Name() string { return p.Label }

func (p *SQL) Do(op Op) (string, bool) {
	switch {
	case op.Kind == Flip:
		flip(p.B, op)
		return "", false
	case op.Kind == Reboot && p.Reboot != nil:
		return answer("ok", p.Reboot()), true
	}
	stmts, ok := op.statements()
	if !ok {
		return "", false
	}
	answers := make([]string, len(stmts))
	for i, r := range p.Exec(stmts...) {
		switch f := strings.Fields(r.Msg); {
		case r.Err != "":
			return "err " + r.Err, true
		case op.Kind == Delete && len(f) > 1: // "deleted N rows from t"
			answers[i] = "deleted " + f[1]
		case op.Kind.counts():
			answers[i] = fmt.Sprintf("count %d", r.Rows[0][0])
		case r.Msg != "":
			answers[i] = "ok"
		default:
			answers[i] = render(r.Rows)
		}
	}
	return strings.Join(answers, batchSep), true
}
