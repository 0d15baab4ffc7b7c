package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"olapdim"
)

// The design-sweep workload: one in-process caller walks a seed-derived
// list of generated schemas and runs the design-stage questions on each
// — parse, compile, lint, the summarizability matrix, and an explanation
// for every category — with a fresh SatCache per schema, so every answer
// is a real DIMSAT search on the compiled engine.
const (
	// sweepListLen is 100 so that the p90 of the per-schema times has ten
	// schemas beyond it.
	sweepListLen     = 100
	sweepParallelism = 2
	// setupRounds is how often an HTTP run sets up; setup_s is the median.
	setupRounds = 5
	// sweepSetupsPerPass is how many set-up rounds design-sweep times at
	// the start of every pass over its list.
	sweepSetupsPerPass = 3
	// digestFormat names what a verdict digest covers; change it whenever
	// sweepOne hashes something else, and record the digests again.
	digestFormat = "design-sweep/v3: lint unsat and redundant, matrix cells, explain verdict and core per category"
)

// member is one schema of the family: its generator seed and its text.
type member struct {
	seed int64
	text string
}

// sweepList renders the seed's list of schemas: one family member from
// every cost stratum of the input table, in seed-shuffled order so that
// a partial pass sees every cost class.
func sweepList(seed int64, t *inputTables) ([]member, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []member
	for _, stratum := range t.Sweep {
		s := stratum[rng.Intn(len(stratum))]
		text, err := familySchema(s)
		if err != nil {
			return nil, fmt.Errorf("sweep list: %w", err)
		}
		out = append(out, member{s, text})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// Phases of one schema, in call order.
const (
	phParse = iota
	phCompile
	phLint
	phMatrix
	phExplain
	numPhases
)

// schemaRun is what one schema's sweep produced.
type schemaRun struct {
	digest   string
	phases   [numPhases]time.Duration
	work     olapdim.Stats
	probes   int
	tasks    int64
	cache    olapdim.CacheStats
	compiled olapdim.CompiledStats
}

// poolMeter observes the facade's worker pool (Options.Pool): it counts
// tasks and their busy time and, while a traced phase runs, records each
// task as a child span of that phase.
type poolMeter struct {
	tasks atomic.Int64
	busy  atomic.Int64 // nanoseconds

	mu     sync.Mutex
	rec    *recorder
	parent string
}

func (p *poolMeter) BatchStart(int) {}
func (p *poolMeter) BatchDone(int)  {}
func (p *poolMeter) TaskStart()     {}

func (p *poolMeter) TaskDone(d time.Duration, _ error) {
	end := time.Now()
	p.tasks.Add(1)
	p.busy.Add(int64(d))
	p.mu.Lock()
	rec, parent := p.rec, p.parent
	p.mu.Unlock()
	if rec != nil && parent != "" {
		rec.add(span{ID: rec.newID(), Parent: parent, Name: "pool.task", Start: end.Add(-d), End: end})
	}
}

// within makes pool tasks children of the phase span id (nil rec: none).
func (p *poolMeter) within(rec *recorder, id string) {
	p.mu.Lock()
	p.rec, p.parent = rec, id
	p.mu.Unlock()
}

// recorder keeps the benchmark's own spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
	next  atomic.Uint64
}

func (r *recorder) newID() string { return strconv.FormatUint(r.next.Add(1), 16) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// sweepOne runs the design-stage questions on one schema. A nil rec runs
// untraced: no spans and no shrink observer, exactly the plain library
// calls.
func sweepOne(ctx context.Context, text string, pool *poolMeter, rec *recorder) (schemaRun, error) {
	var r schemaRun
	root := ""
	if rec != nil {
		root = rec.newID()
	}
	opStart := time.Now()
	tasksBefore := pool.tasks.Load()
	phase := func(ph int, name string, fn func(id string) error) error {
		id := ""
		if rec != nil {
			id = rec.newID()
		}
		pool.within(rec, id)
		start := time.Now()
		err := fn(id)
		end := time.Now()
		pool.within(nil, "")
		r.phases[ph] += end.Sub(start)
		if rec != nil {
			rec.add(span{ID: id, Parent: root, Name: name, Start: start, End: end})
		}
		return err
	}

	var ds *olapdim.DimensionSchema
	if err := phase(phParse, "parser.parse", func(string) (err error) {
		ds, err = olapdim.Parse(text)
		return err
	}); err != nil {
		return r, fmt.Errorf("parse: %w", err)
	}
	var cs *olapdim.CompiledSchema
	if err := phase(phCompile, "compile.compile", func(string) (err error) {
		cs, err = olapdim.Compile(ds)
		return err
	}); err != nil {
		return r, fmt.Errorf("compile: %w", err)
	}
	effort := &olapdim.EffortSink{}
	cache := olapdim.NewSatCache()
	opts := olapdim.Options{Parallelism: sweepParallelism, Cache: cache, Compiled: cs, Effort: effort, Pool: pool}

	h := sha256.New()
	if err := phase(phLint, "core.lint", func(string) error {
		lint, err := olapdim.LintContext(ctx, ds, opts)
		if err == nil {
			fmt.Fprintf(h, "unsat %v\nredundant %v\n", lint.Unsatisfiable, lint.Redundant)
		}
		return err
	}); err != nil {
		return r, fmt.Errorf("lint: %w", err)
	}
	if err := phase(phMatrix, "core.matrix", func(string) error {
		m, err := olapdim.SummarizabilityMatrixContext(ctx, ds, opts)
		if err != nil {
			return err
		}
		for _, t := range m.Categories {
			fmt.Fprintf(h, "%s <-", t)
			for _, s := range m.Categories {
				if m.From[t][s] {
					fmt.Fprintf(h, " %s", s)
				}
			}
			fmt.Fprintln(h)
		}
		return nil
	}); err != nil {
		return r, fmt.Errorf("matrix: %w", err)
	}
	for _, c := range ds.G.SortedCategories() {
		if c == olapdim.All {
			continue
		}
		if err := phase(phExplain, "core.explain", func(id string) error {
			eo := opts
			if rec != nil {
				eo.ShrinkObserver = func(p olapdim.ShrinkProbe) {
					rec.add(span{ID: rec.newID(), Parent: id, Name: "core.explain.probe", Start: p.Start, End: p.Start.Add(p.Duration)})
				}
			}
			ex, err := olapdim.ExplainContext(ctx, ds, c, eo)
			if err == nil {
				fmt.Fprintf(h, "explain %s sat=%v core=%v\n", c, ex.Satisfiable, ex.Core)
				r.probes += ex.Probes
			}
			return err
		}); err != nil {
			return r, fmt.Errorf("explain %s: %w", c, err)
		}
	}
	if rec != nil {
		rec.add(span{ID: root, Name: "sweep.schema", Start: opStart, End: time.Now()})
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	r.work = effort.Stats()
	r.tasks = pool.tasks.Load() - tasksBefore
	r.cache = cache.Stats()
	r.compiled = cs.Stats()
	return r, nil
}

// digestFile is the committed record of verdict digests, one per family
// member of the input table, keyed by generator seed.
type digestFile struct {
	Format  string            `json:"format"`
	Digests map[string]string `json:"digests"`
}

func loadDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	var f digestFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	if f.Format != digestFormat {
		return nil, fmt.Errorf("digests in %s were recorded as %q, not %q; run --calibrate again", path, f.Format, digestFormat)
	}
	return f.Digests, nil
}

// sweepSetups times rounds rounds of the facade's part of getting a
// design session ready: parsing and compiling every schema of the list,
// before any question is asked. Rendering the list is the benchmark's own
// work and is left out. Every round starts from a collected heap,
// untimed, so rounds differ only by interference; the compiled schemas
// are dropped.
func sweepSetups(list []member, rounds int) ([]float64, error) {
	var setups []float64
	for round := 0; round < rounds; round++ {
		runtime.GC()
		t0 := time.Now()
		for _, m := range list {
			ds, err := olapdim.Parse(m.text)
			if err != nil {
				return nil, fmt.Errorf("set-up: parse family member %d: %w", m.seed, err)
			}
			if _, err := olapdim.Compile(ds); err != nil {
				return nil, fmt.Errorf("set-up: compile family member %d: %w", m.seed, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, nil
}

// runSweep runs the design-sweep workload. The first pass over the list
// always completes, even past the deadline, because its work counters
// are the exact counts a run is compared by.
//
// Schemas differ in cost several hundred fold, so a run's figures weigh
// every schema of the list equally, whatever a partial last pass reached:
// ops_per_s is the list length over the sum of the schemas' mean times,
// and the latency percentiles are over every timed pass, each pass of a
// schema weighing one over that schema's pass count. A schema's work is
// the same on every pass (its counts repeat exactly); what varies is the
// speed of a shared host, which drifts over tens of seconds. Means over
// the whole window follow that drift least; a best pass per schema would
// move further than the host did, since a faster host gives more passes
// to take the best of.
//
// Set-up rounds are timed at the start of every pass, so they too are
// spread over the window rather than taken at one moment of it.
func runSweep(ctx context.Context, cfg config) (*runResult, error) {
	res := &runResult{}
	list, err := sweepList(cfg.seed, cfg.inputs)
	if err != nil {
		return nil, err
	}
	recorded, err := loadDigests(cfg.digests)
	if err != nil {
		return nil, err
	}
	for _, m := range list {
		if _, found := recorded[strconv.FormatInt(m.seed, 10)]; !found {
			return nil, fmt.Errorf("no recorded digest for family member %d; run --calibrate again", m.seed)
		}
	}
	var setups []float64

	pool := &poolMeter{}
	rec := &recorder{}
	var (
		times    = make([][]float64, len(list)) // ms per pass, by list index
		first    = make([]schemaRun, len(list))
		paired   [2][]time.Duration // first two passes, by list index
		phaseSum [numPhases]time.Duration
		work     olapdim.Stats
		traced   int
	)
	paired[0] = make([]time.Duration, len(list))
	paired[1] = make([]time.Duration, len(list))
	start := time.Now()
	deadline := start.Add(cfg.duration)
	ops := 0
	for ; ops < len(list) || time.Now().Before(deadline); ops++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k, pass := ops%len(list), ops/len(list)
		if k == 0 {
			s, err := sweepSetups(list, sweepSetupsPerPass)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s...)
		}
		// In a traced run, alternate which schemas are traced from pass to
		// pass, so every schema is timed once each way over two passes.
		var r *recorder
		if cfg.trace && (k+pass)%2 == 1 {
			r = rec
			traced++
		}
		// Every schema starts from a collected heap, untimed, so that
		// peak_rss_mb is the costliest schema's footprint rather than an
		// accident of where earlier schemas left the collector.
		runtime.GC()
		t0 := time.Now()
		run, err := sweepOne(ctx, list[k].text, pool, r)
		d := time.Since(t0)
		if err != nil {
			res.tally.add(errored)
			res.note("schema %d pass %d failed: %v", k, pass, err)
			continue
		}
		if want := recorded[strconv.FormatInt(list[k].seed, 10)]; run.digest != want {
			res.tally.add(wrong)
			res.note("family member %d pass %d: verdict digest %.12s, recorded %.12s", list[k].seed, pass, run.digest, want)
		} else {
			res.tally.add(ok)
		}
		if pass == 0 {
			first[k] = run
		}
		if pass < 2 {
			paired[pass][k] = d
		}
		times[k] = append(times[k], ms(d))
		for i, p := range run.phases {
			phaseSum[i] += p
		}
		work.Expansions += run.work.Expansions
	}
	elapsed := time.Since(start)
	res.correct = res.tally.failed() == 0

	listMS := 0.0
	complete := len(times[0])
	for _, ts := range times {
		complete = min(complete, len(ts))
	}
	passMS := make([]float64, complete)
	var lat, weight []float64
	for _, ts := range times {
		listMS += mean(ts)
		for p := range passMS {
			passMS[p] += ts[p]
		}
		for _, t := range ts {
			lat = append(lat, t)
			weight = append(weight, 1/float64(len(ts)))
		}
	}
	res.note("complete passes took %.0f ms; the per-schema mean times sum to %.0f ms", passMS, listMS)
	n := float64(ops)
	res.e2e = map[string]float64{
		"setup_s":        median(setups),
		"ops_per_s":      float64(len(list)) / (listMS / 1000),
		"latency_p50_ms": weightedQuantile(lat, weight, 0.5),
		"latency_p90_ms": weightedQuantile(lat, weight, 0.9),
	}
	if rss, err := selfPeakRSSMB(); err == nil {
		res.e2e["peak_rss_mb"] = rss
	}
	res.printed = map[string]metric{"failed_ratio": {res.tally.failedRatio(), "ratio"}}
	res.note("%d schemas in %.2fs (%.2f/s raw) over a %d-schema list, %.1f passes; p90 over %d equally weighted schemas (ten beyond it: %v); setup rounds %.4fs",
		ops, elapsed.Seconds(), n/elapsed.Seconds(), len(list), n/float64(len(list)), len(list), supports(len(list), 0.9), setups)

	l := newLayers()
	var p0 schemaRun
	for _, r := range first {
		p0.work.Expansions += r.work.Expansions
		p0.work.Checks += r.work.Checks
		p0.work.DeadEnds += r.work.DeadEnds
		p0.probes += r.probes
		p0.tasks += r.tasks
		p0.cache.Hits += r.cache.Hits
		p0.cache.Misses += r.cache.Misses
		p0.cache.Coalesced += r.cache.Coalesced
		p0.compiled.Compiles += r.compiled.Compiles
		p0.compiled.DeriveHits += r.compiled.DeriveHits
		p0.compiled.DeriveMisses += r.compiled.DeriveMisses
		p0.compiled.DeriveEvictions += r.compiled.DeriveEvictions
	}
	perOp := func(d time.Duration) float64 { return ms(d) / n }
	l.set("parser.parse_ms", perOp(phaseSum[phParse]))
	l.set("compile.compile_ms", perOp(phaseSum[phCompile]))
	l.set("compile.compiles", float64(p0.compiled.Compiles))
	l.set("compile.derive_hits", float64(p0.compiled.DeriveHits))
	l.set("compile.derive_misses", float64(p0.compiled.DeriveMisses))
	l.set("compile.derive_hit_ratio", ratio(float64(p0.compiled.DeriveHits), float64(p0.compiled.DeriveHits+p0.compiled.DeriveMisses)))
	l.set("compile.derive_evictions", float64(p0.compiled.DeriveEvictions))
	l.set("core.expansions", float64(p0.work.Expansions))
	l.set("core.checks", float64(p0.work.Checks))
	l.set("core.dead_ends", float64(p0.work.DeadEnds))
	l.set("core.lint_ms", perOp(phaseSum[phLint]))
	l.set("core.matrix_ms", perOp(phaseSum[phMatrix]))
	l.set("core.explain_ms", perOp(phaseSum[phExplain]))
	search := phaseSum[phLint] + phaseSum[phMatrix] + phaseSum[phExplain]
	l.set("core.ns_per_expansion", ratio(float64(search), float64(work.Expansions)))
	l.set("core.explain_probes", float64(p0.probes))
	l.set("cache.hits_per_op", float64(p0.cache.Hits)/float64(len(list)))
	l.set("cache.misses", float64(p0.cache.Misses))
	l.set("cache.warmup_misses", 0) // no warm-up: every schema starts cold
	l.set("cache.hit_ratio", ratio(float64(p0.cache.Hits), float64(p0.cache.Hits+p0.cache.Misses)))
	l.set("cache.coalesced", float64(p0.cache.Coalesced))
	l.set("pool.tasks", float64(p0.tasks))
	busy := time.Duration(pool.busy.Load())
	l.set("pool.task_ms", ratio(ms(busy), float64(pool.tasks.Load())))
	l.set("pool.busy_ratio", busy.Seconds()/(elapsed.Seconds()*sweepParallelism))
	res.note("first pass: %d expansions, %d checks, %d dead ends, %d cache misses, %d pool tasks, %d explain probes",
		p0.work.Expansions, p0.work.Checks, p0.work.DeadEnds, p0.cache.Misses, p0.tasks, p0.probes)

	if cfg.trace {
		self := selfTimes(rec.spans)
		for name, metricName := range map[string]string{
			"sweep.schema": "self.sweep_ms", "parser.parse": "self.parser_ms", "compile.compile": "self.compile_ms",
			"core.lint": "self.lint_ms", "core.matrix": "self.matrix_ms", "core.explain": "self.explain_ms",
			"core.explain.probe": "self.explain_probe_ms", "pool.task": "self.pool_task_ms",
		} {
			l.set(metricName, ratio(ms(self[name]), float64(traced)))
		}
		l.set("trace.spans", float64(len(rec.spans)))
		var on, off time.Duration
		for k := range list {
			if paired[0][k] == 0 || paired[1][k] == 0 {
				continue
			}
			if k%2 == 1 { // traced in pass 0
				on, off = on+paired[0][k], off+paired[1][k]
			} else {
				on, off = on+paired[1][k], off+paired[0][k]
			}
		}
		if off > 0 {
			l.set("trace.overhead_ratio", float64(on)/float64(off)-1)
		} else {
			l.markAbsent("trace.overhead_ratio", "run too short to pair traced and untraced schemas")
		}
	}
	res.layers = l
	res.loaded = []string{"parser", "compile", "core", "cache", "pool"}
	return res, nil
}
