package server

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A replicated deployment is one primary and its followers. Only the
// logical log is shipped and every member cracks its own columns under
// the reads it serves, so a client needs nothing cluster-wide: it needs
// to know which members there are (Discover) and a read-your-writes
// barrier between a write phase and a follower-read phase (Fence).
// Statements then travel over ordinary Clients — writes to the primary,
// reads to whichever member the caller picks.
//
// Replication is asynchronous, so follower reads are eventually
// consistent; Fence is what makes a read after it see every write the
// primary had accepted before it.

// Topology names a deployment's live members.
type Topology struct {
	Primary   string   // "" in a follower-only (read-only) topology
	Followers []string // sorted
}

// Discover dials the given members and resolves the full topology via
// /repl: any one reachable member suffices — a primary names its
// followers, a follower names its primary. Duplicate and unreachable
// addresses are tolerated as long as one member answers.
func Discover(addrs []string) (Topology, error) {
	if len(addrs) == 0 {
		return Topology{}, fmt.Errorf("server: discovery needs at least one address")
	}
	roles, alive, firstErr := probeTopology(addrs)
	if len(alive) == 0 {
		return Topology{}, fmt.Errorf("server: no member reachable: %v", firstErr)
	}
	var t Topology
	for addr, role := range roles {
		if !alive[addr] {
			continue
		}
		if role == "primary" && t.Primary == "" {
			t.Primary = addr
		} else {
			t.Followers = append(t.Followers, addr)
		}
	}
	sort.Strings(t.Followers)
	return t, nil
}

// probeTopology probes the addresses to a fixpoint: a follower handed
// to us names the primary, the primary names its other followers. Every
// learned address is dialed once, so a member the topology still lists
// but that has gone away (a crashed follower the primary remembers) is
// dropped instead of becoming an unreachable member or fence target.
// A member listens before it registers with its primary, so each address
// is dialed once: a refused port is a dead member.
func probeTopology(addrs []string) (roles map[string]string, alive map[string]bool, firstErr error) {
	roles = make(map[string]string) // addr -> role
	alive = make(map[string]bool)   // addr -> answered a /repl probe
	probed := make(map[string]bool) // addr -> dialed (a role can be learned without dialing)
	probe := func(addr string) {
		if addr == "" || probed[addr] {
			return
		}
		probed[addr] = true
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		c := newClient(conn)
		kv, followers, err := replKV(c)
		c.Close()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		roles[addr] = kv["role"]
		alive[addr] = true
		// A member that advertises under a different address than we
		// dialed keeps the dialed one — both reach the same server.
		if p := kv["primary"]; p != "" && p != addr {
			if _, seen := roles[p]; !seen && kv["role"] == "follower" {
				roles[p] = "primary"
			}
		}
		for _, f := range followers {
			// follower rows are "<addr> <applied> <age-ms>".
			if faddr := strings.Fields(f); len(faddr) > 0 {
				if _, seen := roles[faddr[0]]; !seen {
					roles[faddr[0]] = "follower"
				}
			}
		}
	}
	queue := append([]string(nil), addrs...)
	for len(queue) > 0 {
		for _, a := range queue {
			probe(a)
		}
		queue = queue[:0]
		for addr := range roles {
			if !probed[addr] {
				queue = append(queue, addr)
			}
		}
	}
	return roles, alive, firstErr
}

// Fence blocks until every follower has applied everything the primary
// had accepted when Fence was called. No-op without a primary or
// followers, or on a volatile primary (nothing to fence on).
func (t Topology) Fence(timeout time.Duration) error {
	if t.Primary == "" || len(t.Followers) == 0 {
		return nil
	}
	c, err := DialTimeout(t.Primary, 2*time.Second)
	if err != nil {
		return err
	}
	kv, _, err := replKV(c)
	c.Close()
	if err != nil {
		return err
	}
	next, _ := strconv.ParseUint(kv["next"], 10, 64)
	if next == 0 {
		return nil
	}
	cmd := fmt.Sprintf("/replwait %d %d", next, timeout.Milliseconds())
	for _, f := range t.Followers {
		c, err := DialTimeout(f, 2*time.Second)
		if err != nil {
			return fmt.Errorf("server: fence %s: %w", f, err)
		}
		resp, err := c.Do(cmd)
		c.Close()
		if err != nil {
			return fmt.Errorf("server: fence %s: %w", f, err)
		}
		if resp.Err != "" {
			return fmt.Errorf("server: fence %s: %s", f, resp.Err)
		}
	}
	return nil
}
