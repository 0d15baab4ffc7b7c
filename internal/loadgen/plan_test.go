package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"olapdim/internal/paper"
	"olapdim/internal/parser"
)

// TestPlannerDeterminism holds the core reproducibility contract: two
// planners built from the same spec emit byte-identical request
// streams, and a different seed emits a different stream.
func TestPlannerDeterminism(t *testing.T) {
	spec := Defaults()
	spec.Seed = 42
	stream := func(s Spec) []string {
		t.Helper()
		p, err := NewPlanner(s)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, 2000)
		for i := range lines {
			lines[i] = p.Next().Line()
		}
		return lines
	}
	a := stream(spec)
	if !slices.Equal(a, stream(spec)) {
		t.Fatal("two planners with the same seed produced different request streams")
	}
	spec2 := spec
	spec2.Seed = 43
	if slices.Equal(a, stream(spec2)) {
		t.Fatal("different seeds produced identical request streams")
	}
}

// TestPlannerSeedThreadsIntoGen checks the single -seed contract's other
// half: the seed reaches the schema generator, so different seeds yield
// different schema instances (not just different sampling).
func TestPlannerSeedThreadsIntoGen(t *testing.T) {
	spec := Defaults()
	spec.Seed = 1
	p1, err := NewPlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 2
	p2, err := NewPlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Schema().Format() == p2.Schema().Format() {
		t.Error("seeds 1 and 2 generated identical schemas; the seed is not reaching internal/gen")
	}
	// Schema.Seed in the spec is ignored in favor of Seed.
	spec3 := Defaults()
	spec3.Seed = 1
	spec3.Schema.Seed = 999
	p3, err := NewPlanner(spec3)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Schema().Format() != p3.Schema().Format() {
		t.Error("Schema.Seed overrode Seed; the run seed must win")
	}
}

// TestPlannerStreamValidity decodes a long stream: every operation with
// positive weight appears, paths reference real categories, and POST
// bodies are valid JSON whose constraints parse.
func TestPlannerStreamValidity(t *testing.T) {
	spec := Defaults()
	spec.Seed = 7
	spec.Mix = map[string]int{
		OpSat: 5, OpCategories: 1, OpImplies: 4, OpSummarizable: 3,
		OpSources: 2, OpMatrix: 1, OpJobs: 1,
	}
	p, err := NewPlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	ds := p.Schema()
	seen := map[string]int{}
	for i := 0; i < 3000; i++ {
		req := p.Next()
		if req.Index != i {
			t.Fatalf("request %d has index %d", i, req.Index)
		}
		seen[req.Op]++
		switch req.Op {
		case OpSat:
			c := strings.TrimPrefix(req.Path, "/sat?category=")
			if !ds.G.HasCategory(c) {
				t.Fatalf("sat request references unknown category %q", c)
			}
		case OpImplies:
			var body struct {
				Constraint string `json:"constraint"`
			}
			if err := json.Unmarshal([]byte(req.Body), &body); err != nil {
				t.Fatalf("implies body %q: %v", req.Body, err)
			}
			if _, err := parser.ParseConstraint(body.Constraint); err != nil {
				t.Fatalf("implies constraint %q does not parse: %v", body.Constraint, err)
			}
		case OpSummarizable:
			var body struct {
				Target string   `json:"target"`
				From   []string `json:"from"`
			}
			if err := json.Unmarshal([]byte(req.Body), &body); err != nil {
				t.Fatalf("summarizable body %q: %v", req.Body, err)
			}
			if !ds.G.HasCategory(body.Target) || len(body.From) == 0 {
				t.Fatalf("summarizable body %q references unknown target or empty from", req.Body)
			}
			for _, f := range body.From {
				if !ds.G.HasCategory(f) {
					t.Fatalf("summarizable source %q unknown", f)
				}
			}
		case OpJobs:
			var body struct {
				Kind     string `json:"kind"`
				Category string `json:"category"`
			}
			if err := json.Unmarshal([]byte(req.Body), &body); err != nil {
				t.Fatalf("jobs body %q: %v", req.Body, err)
			}
			if body.Kind != "sat" || !ds.G.HasCategory(body.Category) {
				t.Fatalf("jobs body %q invalid", req.Body)
			}
		}
	}
	for op, w := range spec.Mix {
		if w > 0 && seen[op] == 0 {
			t.Errorf("operation %s has weight %d but never appeared in 3000 requests", op, w)
		}
	}
	// Rough mix adherence: sat (weight 5/17) should dominate matrix (1/17).
	if seen[OpSat] < seen[OpMatrix] {
		t.Errorf("mix skew: sat=%d matrix=%d despite 5x weight", seen[OpSat], seen[OpMatrix])
	}
}

// TestPlannerSchemaText drives the planner from an explicit schema (the
// paper's locationSch) instead of a generated family.
func TestPlannerSchemaText(t *testing.T) {
	spec := Spec{Seed: 3, SchemaText: paper.LocationSch().Format(), Mix: map[string]int{OpSat: 1}}
	p, err := NewPlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		req := p.Next()
		c := strings.TrimPrefix(req.Path, "/sat?category=")
		if !p.Schema().G.HasCategory(c) {
			t.Fatalf("unknown category %q from schema-text planner", c)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("sat=8, implies=5,jobs=1")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{OpSat: 8, OpImplies: 5, OpJobs: 1}; !maps.Equal(mix, want) {
		t.Errorf("mix = %v, want %v", mix, want)
	}
	for _, bad := range []string{"nope=1", "sat", "sat=-1", "sat=x", "sat=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) succeeded, want error", bad)
		}
	}
}

func TestPlannerRejectsEmptyMix(t *testing.T) {
	spec := Defaults()
	spec.Mix = map[string]int{OpSat: 0}
	if _, err := NewPlanner(spec); err == nil {
		t.Error("planner accepted a mix with no positive weights")
	}
}

// TestPlannerStreamPinned pins the bytes of the planned request stream:
// the SHA-256 of the first 2,052 Request.Line()s (perfbench's stream
// length) at seeds 1 and 7, for perfbench's read mix and for a mix that
// holds every operation. Moving a query parameter, a body key or an
// escape moves a hash, and with it every request perfbench sends.
func TestPlannerStreamPinned(t *testing.T) {
	mixes := map[string]string{
		"reads": "sat=8,implies=5,summarizable=4,sources=2",
		"all":   "sat=8,categories=1,implies=5,summarizable=4,sources=2,matrix=1,jobs=1,explain=1",
	}
	want := map[string]string{
		"reads/1":   "7c76f4c1f5f446f595324f7367a45349b0137738bde59eb27b02a95ec1032d30",
		"reads/7":   "99fe76b750fa5a185822bcb32e8e1d9286539721f4fc2827bd10c49b656d149b",
		"all/1":     "0350e83c08b36b7906cbf30ccc54e941a9d8c54f8e363489d0186bbddcfc9058",
		"all/7":     "221b14ee8ee49861f880983a6a5ac9b3bba36c11bb84fc428f280921ac53552d",
		"pricing/7": "5815e31bc828e39d7421417851ddd43f8d100a0ae29c6bb23333eaa3ae3c2b64",
	}
	// The pricing schema's order atoms put <, >= and & into implies
	// bodies, so its stream also pins the JSON escapes.
	pricing, err := os.ReadFile("../../cmd/dimsat/testdata/pricing.dims")
	if err != nil {
		t.Fatal(err)
	}
	stream := func(key, mixSrc, schemaText string, seed int64) {
		t.Helper()
		mix, err := ParseMix(mixSrc)
		if err != nil {
			t.Fatal(err)
		}
		spec := Defaults()
		spec.Seed, spec.Mix, spec.SchemaText = seed, mix, schemaText
		p, err := NewPlanner(spec)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i := 0; i < 2052; i++ {
			req := p.Next()
			if req.Op == OpSummarizable && !strings.HasPrefix(req.Body, `{"from":[`) {
				t.Fatalf("summarizable body %s does not open with from", req.Body)
			}
			fmt.Fprintln(h, req.Line())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
			t.Errorf("%s: stream SHA-256 = %s, want %s", key, got, want[key])
		}
	}
	for name, src := range mixes {
		for _, seed := range []int64{1, 7} {
			stream(fmt.Sprintf("%s/%d", name, seed), src, "", seed)
		}
	}
	stream("pricing/7", mixes["all"], string(pricing), 7)
}
