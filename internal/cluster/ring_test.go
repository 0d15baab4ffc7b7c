package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndStable(t *testing.T) {
	a := NewRing("w1", "w2", "w3")
	b := NewRing("w3", "w1", "w2") // member order must not matter
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("sat/C%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q differs across construction orders: %q vs %q",
				key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingCandidatesDistinctAndOwnerFirst(t *testing.T) {
	r := NewRing("w1", "w2", "w3")
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		c := r.Candidates(key, 3)
		if len(c) != 3 {
			t.Fatalf("Candidates(%q, 3) = %v, want 3 distinct members", key, c)
		}
		seen := map[string]bool{}
		for _, m := range c {
			if seen[m] {
				t.Fatalf("Candidates(%q, 3) repeats %q: %v", key, m, c)
			}
			seen[m] = true
		}
		if c[0] != r.Owner(key) {
			t.Fatalf("Candidates(%q)[0] = %q, Owner = %q", key, c[0], r.Owner(key))
		}
	}
	if got := r.Candidates("k", 10); len(got) != 3 {
		t.Fatalf("Candidates capped at membership: got %d members", len(got))
	}
	if NewRing().Owner("k") != "" {
		t.Fatal("empty ring must own nothing")
	}
}

// TestRingRemovalMovesOnlyOrphanedKeys pins the consistent-hashing
// property the resharding story depends on: restarting the coordinator
// with one member fewer must not move any key whose owner survives.
func TestRingRemovalMovesOnlyOrphanedKeys(t *testing.T) {
	r := NewRing("w1", "w2", "w3")
	without := NewRing("w1", "w3")
	moved, kept := 0, 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := r.Owner(key)
		after := without.Owner(key)
		if before == "w2" {
			if after == "w2" {
				t.Fatalf("key %q still owned by removed member", key)
			}
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q moved %q -> %q although its owner survives", key, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing("w1", "w2", "w3")
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("sat/C%d", i))]++
	}
	for m, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("member %s owns %.0f%% of keys, expected a rough third", m, 100*frac)
		}
	}
}
