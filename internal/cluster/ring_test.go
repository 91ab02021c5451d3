package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sha256:%064x", i)
	}
	return keys
}

// The ring must place every key identically regardless of the order
// the membership list arrives in — routers and shards each build their
// own ring from flags and must agree byte-for-byte.
func TestRingDeterministicAcrossMemberOrder(t *testing.T) {
	a, err := NewRing([]string{"http://s1", "http://s2", "http://s3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://s3", "http://s1", "http://s2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(2000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %s: owner %q vs %q across member orderings", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, err := NewRing([]string{"http://s1", "http://s2", "http://s3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := testKeys(30000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for m, c := range counts {
		frac := float64(c) / float64(len(keys))
		// Perfect balance is 1/3; 64 vnodes keeps every shard within a
		// loose band. A shard below 15% or above 55% means the vnode
		// spreading is broken, not just unlucky.
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("member %s owns %.1f%% of keys, outside [15%%, 55%%]", m, 100*frac)
		}
	}
	shares := r.Shares()
	if len(shares) != 3 {
		t.Fatalf("Shares returned %d members, want 3", len(shares))
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %f, want 1", total)
	}
}

func TestRingOwnersDistinctFailoverOrder(t *testing.T) {
	r, err := NewRing([]string{"http://s1", "http://s2", "http://s3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(200) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%s, 3) returned %d members", k, len(owners))
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("Owners[0] %q != Owner %q", owners[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%s) repeats %q", k, o)
			}
			seen[o] = true
		}
	}
	if got := r.Owners("k", 10); len(got) != 3 {
		t.Fatalf("Owners over-asks: got %d, want all 3", len(got))
	}
}

// Adding one member must only move keys TO the new member — the
// consistent-hashing property peer-fill's previous-topology lookup
// depends on — and only about 1/N of them.
func TestRingMinimalRemapOnGrowth(t *testing.T) {
	old, err := NewRing([]string{"http://s1", "http://s2", "http://s3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing([]string{"http://s1", "http://s2", "http://s3", "http://s4"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(10000)
	moved := 0
	for _, k := range keys {
		was, is := old.Owner(k), grown.Owner(k)
		if was == is {
			continue
		}
		moved++
		if is != "http://s4" {
			t.Fatalf("key %s moved %s -> %s: growth may only move keys to the new member", k, was, is)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("growth remapped %.1f%% of keys, want roughly 1/4 (10%%-45%%)", 100*frac)
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{"http://s1", ""}, 0); err == nil {
		t.Error("blank member accepted")
	}
	r, err := NewRing([]string{"http://s1", "http://s1/"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1 {
		t.Errorf("duplicate members (modulo trailing slash) not collapsed: size %d", r.Size())
	}
}

func TestSplitMembers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{" http://a:1/, ,http://b:2 ", []string{"http://a:1", "http://b:2"}},
		{"http://a:1//,\thttp://b:2\n", []string{"http://a:1", "http://b:2"}},
		{"http://a:1,,http://a:1/", []string{"http://a:1", "http://a:1"}},
		{" / ,http://c:3", []string{"http://c:3"}},
	} {
		if got := SplitMembers(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitMembers(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
