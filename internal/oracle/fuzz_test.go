package oracle

import (
	"testing"

	"crackdb"
	"crackdb/internal/shard"
)

// FuzzStatements decodes bytes into an op stream — a quarter of it
// invalid or degenerate — and holds every in-process backend to the
// model: one store, and a batch ≡ sequential pair of stores (all three
// also reboot through their images), a router of 1 or 4 shards, hash or
// range, as the first byte says, and a SQL engine over a one-shard
// router and over that router. Any answer, error text or row order that
// differs fails.
func FuzzStatements(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		opts := shard.Options{Shards: 1 + 3*int(data[0]&1), Kind: []shard.Kind{shard.Hash, shard.Range}[data[0]>>1&1]}
		rebooting := func() *Backend { return &Backend{Store: crackdb.New(), Dir: t.TempDir()} }
		Run(t, Decode(data[1:]), nil, rebooting(), Ordered{rebooting(), rebooting()}, Router(shard.New(opts)),
			Engine("sql over a one-shard router", shard.New(shard.Options{})), Engine("sql over a router", shard.New(opts)))
	})
}
