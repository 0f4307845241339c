package server

import (
	"strings"
	"testing"

	"crackdb/internal/shard"
)

// TestMetaRegistry: the table is the meta layer, so its shape is the
// protocol's — unique /-prefixed names, a usage line each, all of them in
// /help — and its two flags are the only gates.
func TestMetaRegistry(t *testing.T) {
	volatile := New(shard.New(shard.Options{Shards: 2}), nil)
	const primary = "10.0.0.1:7744"
	follower := New(shard.New(shard.Options{Shards: 2}), nil)
	follower.SetPrimary(primary)

	help, _ := volatile.serveOne("/help")
	seen := make(map[string]bool)
	for _, m := range metas {
		if !strings.HasPrefix(m.name, "/") || seen[m.name] {
			t.Errorf("meta name %q is not unique and /-prefixed", m.name)
		}
		seen[m.name] = true
		if !strings.HasPrefix(m.usage, m.name) {
			t.Errorf("%s: usage %q does not start with the command", m.name, m.usage)
		}
		if !strings.Contains(help.Message, m.usage) {
			t.Errorf("/help does not list %q: %s", m.usage, help.Message)
		}
		if m.run == nil {
			t.Errorf("%s has no handler", m.name)
		}

		// Bare invocations: a gate, when one applies, answers before the
		// handler ever parses arguments.
		resp, _ := follower.serveOne(m.name)
		if want := "read-only follower; primary=" + primary; (resp.Err == want) != m.primaryOnly {
			t.Errorf("%s on a follower answered %+v, primaryOnly=%v", m.name, resp, m.primaryOnly)
		}
		resp, _ = volatile.serveOne(m.name)
		if want := "store is not durable (start with -data)"; (resp.Err == want) != m.needsWAL {
			t.Errorf("%s on a volatile store answered %+v, needsWAL=%v", m.name, resp, m.needsWAL)
		}
	}

	resp, quit := volatile.serveOne("/bogus 1 2")
	if resp.Err != "unknown command /bogus (try /help)" || quit {
		t.Errorf("unknown command answered %+v quit=%v", resp, quit)
	}
	// A crack strategy is each server's boot configuration, not a command.
	if resp, _ := volatile.serveOne("/strategy mdd1r 7"); resp.Err != "unknown command /strategy (try /help)" {
		t.Errorf("/strategy answered %+v", resp)
	}
	// A handler's nil response is the table's usage line.
	if resp, _ := volatile.serveOne("/stats onlyone"); resp.Err != "usage: /stats [<table> <column>]" {
		t.Errorf("bad arity answered %+v", resp)
	}
	if resp, quit := volatile.serveOne("/quit"); resp.Message != "bye" || !quit {
		t.Errorf("/quit answered %+v quit=%v", resp, quit)
	}
}
