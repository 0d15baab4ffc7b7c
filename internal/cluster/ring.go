package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is an immutable consistent-hash ring over worker names. Each
// member is projected onto the ring at ringReplicas virtual points
// (FNV-64a of "name#i"), so the keyspace splits near-evenly and a
// membership change — a coordinator restarted with one worker fewer or
// more — moves only ~1/N of the keys: a removed worker's keys land on
// ring neighbors instead of reshuffling every shard's SatCache.
//
// Immutability is deliberate: routing reads need no synchronization.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

// ringReplicas is the virtual-node count per member, enough to keep the
// per-member keyspace share within a few percent of even for small N.
const ringReplicas = 64

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over members.
func NewRing(members ...string) *Ring {
	r := &Ring{members: append([]string(nil), members...)}
	sort.Strings(r.members)
	r.points = make([]ringPoint, 0, len(members)*ringReplicas)
	for _, m := range r.members {
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{hashKey(fmt.Sprintf("%s#%d", m, i)), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is a 64-bit finalizer (splitmix64's) on top of FNV. Raw FNV-1a
// avalanches poorly on short, similar strings — the "name#i" virtual
// node labels differ in a couple of bytes, and without the finalizer
// one member can end up owning a few percent of the keyspace while its
// peers split the rest (TestRingBalance catches exactly that).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Members returns the ring's members, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	c := r.Candidates(key, 1)
	if len(c) == 0 {
		return ""
	}
	return c[0]
}

// Candidates returns up to n distinct members in ring order starting at
// the owner of key: the failover order. Walking clockwise from the
// key's point and deduplicating members yields the same sequence every
// call, so retries, hedges and job reassignment all agree on who is
// "next" for a key.
func (r *Ring) Candidates(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
