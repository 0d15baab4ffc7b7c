// Package faults provides deterministic, seeded fault injection for
// robustness tests. An Injector is configured with rules naming an
// injection site (a stable string constant owned by the instrumented
// package) and a fault kind — a returned error, an injected latency, or a
// panic. Production code threads an optional *Injector through its options
// and calls Hit at each site; a nil injector is free and injects nothing,
// so the instrumentation can stay compiled into hot paths.
//
// Determinism is the point: a rule can fire on exact hit numbers (the 7th
// task the worker pool runs), on every Nth hit, or with a probability
// drawn from the injector's own seeded generator — never from global
// randomness — so a failing schedule replays bit for bit.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Injection sites instrumented by packages core and jobs. Owned here so
// tests and instrumentation agree on the spelling.
const (
	// SiteCacheLookup fires when a DIMSAT call consults the shared
	// SatCache (before the lookup), simulating a failing cache tier.
	SiteCacheLookup = "cache.lookup"
	// SitePoolTask fires before each task a core worker pool runs
	// (per-bottom matrix walks, per-category sweeps, lint probes).
	SitePoolTask = "pool.task"
	// SiteExpand fires before each EXPAND step of a DIMSAT search.
	SiteExpand = "dimsat.expand"
	// SiteJobPersist fires before each durable write the job store makes
	// (job records and search checkpoints), simulating a failing disk.
	SiteJobPersist = "jobs.persist"
	// SiteClusterForward fires before each attempt the cluster
	// coordinator's worker client forwards to a dimsatd worker,
	// simulating a failing or unreachable shard.
	SiteClusterForward = "cluster.forward"
	// SiteClusterProbe fires before each /readyz health probe the
	// coordinator sends a worker, simulating a flapping health plane.
	SiteClusterProbe = "cluster.probe"
	// SiteClusterHedge fires before the coordinator launches a hedge
	// request for a straggling read, simulating hedge-path failures.
	SiteClusterHedge = "cluster.hedge"
	// SiteJobsFsync fires at the durability point of a snapshot write
	// (the fsync before rename), separately from SiteJobPersist which
	// fires before the write begins. An Error rule here models a disk
	// that accepts the bytes but cannot make them durable: fsync
	// failure, ENOSPC at flush (ErrNoSpace), or a torn write
	// (ErrTornWrite) where only a prefix reached the platter.
	SiteJobsFsync = "jobs.fsync"
	// SiteSnapshotRead fires before each snapshot file read the job
	// store makes (job records and checkpoints, at load and resume). A
	// Corrupt rule here flips a bit in the bytes read, modeling silent
	// media corruption that the snapshot checksum must catch.
	SiteSnapshotRead = "snapshot.read"
	// SiteClusterPartition fires before each request the coordinator's
	// transport sends a worker — forwards, probes and hedges alike —
	// modeling a network partition between coordinator and worker. The
	// chaos harness arms it per-host via PartitionTransport.
	SiteClusterPartition = "cluster.partition"
	// SiteCoreShrink fires before each unsat-core shrink probe
	// ExplainContext runs, simulating explain-path failures without
	// disturbing the initial satisfiability run.
	SiteCoreShrink = "core.shrink"
)

// knownSites is the registry Check validates rule plans against: a plan
// naming a site nothing instruments would otherwise arm a fault that never
// fires, and the test relying on it would silently pass.
var knownSites = map[string]bool{
	SiteCacheLookup:      true,
	SitePoolTask:         true,
	SiteExpand:           true,
	SiteJobPersist:       true,
	SiteClusterForward:   true,
	SiteClusterProbe:     true,
	SiteClusterHedge:     true,
	SiteJobsFsync:        true,
	SiteSnapshotRead:     true,
	SiteClusterPartition: true,
	SiteCoreShrink:       true,
}

// KnownSites returns the registered injection sites, sorted.
func KnownSites() []string {
	out := make([]string, 0, len(knownSites))
	for s := range knownSites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ErrInjected is the default error returned by an Error rule with no
// explicit Err. Test with errors.Is.
var ErrInjected = errors.New("faults: injected error")

// ErrUnknownSite reports a rule plan naming an injection site no
// instrumented package owns. Test with errors.Is.
var ErrUnknownSite = errors.New("faults: unknown injection site")

// ErrNoSpace is a canned Err for Error rules at SiteJobsFsync modeling
// ENOSPC surfacing at flush time. Test with errors.Is.
var ErrNoSpace = errors.New("faults: injected no space left on device")

// ErrTornWrite is a canned Err for Error rules at SiteJobsFsync modeling
// a write torn mid-file by power loss: the store treats the write as
// failed AND leaves a truncated file behind for the recovery scan to
// quarantine. Test with errors.Is.
var ErrTornWrite = errors.New("faults: injected torn write")

// Check validates a rule plan before installation: every rule must name a
// registered injection site. It returns an error wrapping ErrUnknownSite
// for the first offending rule, so a typo in a fault plan fails loudly
// instead of arming a fault that never fires.
func Check(rules ...Rule) error {
	for i, r := range rules {
		if !knownSites[r.Site] {
			return fmt.Errorf("%w: rule %d names %q (known sites: %s)",
				ErrUnknownSite, i, r.Site, strings.Join(KnownSites(), ", "))
		}
	}
	return nil
}

// Kind classifies what a matching rule injects.
type Kind int

const (
	// Error makes Hit return the rule's Err (ErrInjected by default).
	Error Kind = iota
	// Latency makes Hit sleep for the rule's Delay, then continue to any
	// later rules (a latency rule alone injects no failure).
	Latency
	// Panic makes Hit panic with a *PanicValue naming the site and hit.
	Panic
	// Corrupt makes Hit return a *CorruptError carrying the site and hit
	// number. Instrumented read paths recognize it (errors.As) and
	// corrupt the bytes they just read — FlipBit is the canonical
	// mutation — instead of failing the read outright, so checksum
	// verification downstream is what must catch the damage.
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Latency:
		return "latency"
	case Panic:
		return "panic"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule arms one fault at one site. Exactly one of the trigger fields
// selects when it fires, checked in order: On (exact 1-based hit numbers),
// Every (every Nth hit), Prob (seeded coin flip per hit). A rule with no
// trigger fields fires on every hit.
type Rule struct {
	// Site is the injection site the rule arms.
	Site string
	// Kind selects the fault: Error, Latency or Panic.
	Kind Kind
	// On lists exact 1-based hit numbers at which the rule fires.
	On []int
	// Every fires the rule on every Every-th hit when positive.
	Every int
	// Prob fires the rule with this probability per hit, drawn from the
	// injector's seeded generator, when positive.
	Prob float64
	// Err is returned by Error rules; nil means ErrInjected.
	Err error
	// Delay is slept by Latency rules.
	Delay time.Duration
}

// fires reports whether the rule triggers on the n-th hit (1-based).
// rng is consulted only for Prob rules, keeping the draw sequence stable
// per site regardless of other sites' traffic.
func (r Rule) fires(n int, rng *rand.Rand) bool {
	switch {
	case len(r.On) > 0:
		for _, k := range r.On {
			if k == n {
				return true
			}
		}
		return false
	case r.Every > 0:
		return n%r.Every == 0
	case r.Prob > 0:
		return rng.Float64() < r.Prob
	}
	return true
}

// PanicValue is the value a Panic rule panics with; recovery layers can
// type-assert it to recognize injected panics.
type PanicValue struct {
	Site string
	Hit  int
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("faults: injected panic at %s (hit %d)", p.Site, p.Hit)
}

// CorruptError is returned by Hit when a Corrupt rule fires. An
// instrumented read path detects it with errors.As and damages the bytes
// it read (FlipBit(data, Hit) keeps the damage deterministic per hit)
// rather than propagating it as a failure; a site that does not know how
// to corrupt may treat it as a plain read error.
type CorruptError struct {
	Site string
	Hit  int
}

func (c *CorruptError) Error() string {
	return fmt.Sprintf("faults: injected corruption at %s (hit %d)", c.Site, c.Hit)
}

// FlipBit flips one bit of data, chosen deterministically from hit, and
// reports whether it changed anything (false only for empty data). It is
// the canonical mutation for Corrupt rules: one flipped bit is the
// smallest damage a checksum must still catch.
func FlipBit(data []byte, hit int) bool {
	if len(data) == 0 {
		return false
	}
	if hit < 0 {
		hit = -hit
	}
	bit := hit % (len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	return true
}

// Injector evaluates rules at injection sites. All methods are safe for
// concurrent use and on a nil receiver (a nil *Injector injects nothing).
type Injector struct {
	mu    sync.Mutex
	rules []Rule
	rngs  map[string]*rand.Rand
	seed  int64
	hits  map[string]int
	fired map[string]int
}

// New builds an injector with seed 1; see NewSeeded.
func New(rules ...Rule) *Injector { return NewSeeded(1, rules...) }

// NewSeeded builds an injector whose Prob rules draw from per-site
// generators derived from seed, so probabilistic schedules are
// reproducible and independent across sites. It panics if a rule names an
// unknown injection site (use NewValidated to get the error instead):
// these constructors are called from test and harness setup, where an
// armed-but-unfireable fault is a silent bug.
func NewSeeded(seed int64, rules ...Rule) *Injector {
	in, err := NewValidated(seed, rules...)
	if err != nil {
		panic(err)
	}
	return in
}

// NewValidated is NewSeeded returning the ErrUnknownSite validation error
// instead of panicking, for callers assembling rule plans from external
// input (config files, request bodies).
func NewValidated(seed int64, rules ...Rule) (*Injector, error) {
	if err := Check(rules...); err != nil {
		return nil, err
	}
	return &Injector{
		rules: rules,
		seed:  seed,
		rngs:  map[string]*rand.Rand{},
		hits:  map[string]int{},
		fired: map[string]int{},
	}, nil
}

// Hit records one pass through site and applies the first matching armed
// rule: Latency rules sleep and further rules are still consulted (so
// "slow and then fail" composes from two rules); an Error rule returns its
// error; a Panic rule panics. Returns nil when nothing fires. Hit on a nil
// injector is a no-op returning nil.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.hits[site]++
	n := in.hits[site]
	var sleep time.Duration
	var ret error
	var pv *PanicValue
	for _, r := range in.rules {
		if r.Site != site || !r.fires(n, in.rng(site)) {
			continue
		}
		in.fired[site]++
		switch r.Kind {
		case Latency:
			sleep += r.Delay
			continue // latency composes with a later error/panic rule
		case Error:
			ret = r.Err
			if ret == nil {
				ret = ErrInjected
			}
		case Panic:
			pv = &PanicValue{Site: site, Hit: n}
		case Corrupt:
			ret = &CorruptError{Site: site, Hit: n}
		}
		break
	}
	in.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if pv != nil {
		panic(pv)
	}
	return ret
}

// Arm appends rules to the injector's plan at runtime, after validating
// their sites. The chaos harness uses Arm/DisarmSite to turn a timed
// fault schedule into windows during which a site misbehaves. Arm on a
// nil injector returns an error: the caller forgot to install one.
func (in *Injector) Arm(rules ...Rule) error {
	if in == nil {
		return errors.New("faults: Arm on nil injector")
	}
	if err := Check(rules...); err != nil {
		return err
	}
	in.mu.Lock()
	in.rules = append(in.rules, rules...)
	in.mu.Unlock()
	return nil
}

// DisarmSite removes every rule armed at site, ending a fault window
// opened by Arm. Hit and fired counts are preserved. A nil injector or
// an unarmed site is a no-op.
func (in *Injector) DisarmSite(site string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	kept := in.rules[:0]
	for _, r := range in.rules {
		if r.Site != site {
			kept = append(kept, r)
		}
	}
	in.rules = kept
	in.mu.Unlock()
}

// rng returns the per-site generator; callers hold in.mu.
func (in *Injector) rng(site string) *rand.Rand {
	r, ok := in.rngs[site]
	if !ok {
		h := int64(0)
		for _, c := range site {
			h = h*131 + int64(c)
		}
		r = rand.New(rand.NewSource(in.seed ^ h))
		in.rngs[site] = r
	}
	return r
}

// Hits returns how many times site was passed through.
func (in *Injector) Hits(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Fired returns how many rule activations occurred at site (latency and
// failure activations both count).
func (in *Injector) Fired(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[site]
}

// AllFired snapshots the per-site activation counts, for metric scrapes
// that label a counter by site. Sites never activated are absent.
func (in *Injector) AllFired() map[string]int {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int, len(in.fired))
	for site, n := range in.fired {
		out[site] = n
	}
	return out
}
