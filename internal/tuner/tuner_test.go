package tuner

import (
	"math/rand"
	"testing"
)

// aggressive reacts within a couple dozen queries so tests stay small.
func aggressive() Config {
	return Config{Window: 8, Confirm: 2, Cooldown: 20, Monotone: 0.85}
}

// drive feeds n queries of a synthetic pattern and returns the first
// advised flip (strategy, query index) or ("", -1).
func drive(t *Tuner, pattern string, n int, rng *rand.Rand, current func() string, flipped func(string)) (string, int) {
	lo, hi := int64(0), int64(0)
	for i := 0; i < n; i++ {
		switch pattern {
		case "sequential":
			lo, hi = int64(i)*10, int64(i)*10+5
		case "reverse":
			lo, hi = int64(n-i)*10, int64(n-i)*10+5
		case "zoomin":
			lo, hi = int64(i)*10, int64(2*n-i)*10
		case "random":
			lo = rng.Int63n(1 << 20)
			hi = lo + 100
		}
		if want, flip := t.Observe("t", "a", current(), lo, hi); flip {
			if flipped != nil {
				flipped(want)
			} else {
				return want, i
			}
		}
	}
	return "", -1
}

// TestDecisionTable drives each hostile pattern against a standard
// column and checks the advised strategy and how fast it arrives: with
// Window 8 and Confirm 2 the flip must come at the end of the second
// window.
func TestDecisionTable(t *testing.T) {
	for _, tc := range []struct {
		pattern, want string
	}{
		{"sequential", "ddr"},
		{"reverse", "ddr"},
		{"zoomin", "ddr"},
	} {
		tn := New(aggressive())
		got, at := drive(tn, tc.pattern, 100, nil, func() string { return "standard" }, nil)
		if got != tc.want {
			t.Fatalf("%s: advised %q, want %q", tc.pattern, got, tc.want)
		}
		if at != 15 { // two windows of 8 observations, advice on the last
			t.Fatalf("%s: flip advised at query %d, want 15", tc.pattern, at)
		}
	}
}

// TestRandomNeverFlips: a uniform stream must classify Random and leave
// a standard column alone — the zero-flip half of the acceptance bar.
func TestRandomNeverFlips(t *testing.T) {
	tn := New(Config{Window: 32, Confirm: 2, Cooldown: 20, Monotone: 0.85})
	if got, at := drive(tn, "random", 2000, rand.New(rand.NewSource(11)), func() string { return "standard" }, nil); got != "" {
		t.Fatalf("random stream advised flip to %q at query %d", got, at)
	}
	d := tn.Decisions()
	if len(d) != 1 || d[0].Flips != 0 || d[0].Class != "random" {
		t.Fatalf("decisions = %+v, want one random entry with 0 flips", d)
	}
}

// TestCooldownBlocksReflip: after a flip the column is frozen for
// Cooldown queries even if the stream immediately changes regime again.
func TestCooldownBlocksReflip(t *testing.T) {
	cfg := aggressive()
	tn := New(cfg)
	current := "standard"
	// Sequential until the first flip engages the cooldown.
	want, _ := drive(tn, "sequential", 16, nil, func() string { return current }, nil)
	if want != "ddr" {
		t.Fatalf("warmup advised %q, want ddr", want)
	}
	current = "ddr"
	tn.Flipped("t", "a", current)
	// Now a random stream wants standard. Windows complete every 8
	// queries after the flip; cooldown (20) must swallow the first
	// eligible advice, so the flip may arrive only after query 20.
	var flips []int
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		lo := rng.Int63n(1 << 20)
		if w, flip := tn.Observe("t", "a", current, lo, lo+100); flip {
			if w != "standard" {
				t.Fatalf("advised %q, want standard", w)
			}
			flips = append(flips, i)
			current = "standard"
			tn.Flipped("t", "a", current)
		}
	}
	if len(flips) != 1 {
		t.Fatalf("got %d flips %v, want exactly 1", len(flips), flips)
	}
	if flips[0] < cfg.Cooldown {
		t.Fatalf("reflip at query %d, inside the %d-query cooldown", flips[0], cfg.Cooldown)
	}
}

// TestForceSuppressesAdvice: a pinned column never auto-flips; Release
// restores automatic control.
func TestForceSuppressesAdvice(t *testing.T) {
	tn := New(aggressive())
	tn.Force("t", "a")
	tn.Flipped("t", "a", "standard")
	if got, at := drive(tn, "sequential", 100, nil, func() string { return "standard" }, nil); got != "" {
		t.Fatalf("forced column advised %q at %d", got, at)
	}
	tn.Release("t", "a")
	got, _ := drive(tn, "sequential", 100, nil, func() string { return "standard" }, nil)
	if got != "ddr" {
		t.Fatalf("released column advised %q, want ddr", got)
	}
}
