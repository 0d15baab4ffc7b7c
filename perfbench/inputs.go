package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"olapdim/internal/gen"
	"olapdim/internal/loadgen"
)

// Every schema the benchmark uses is a member of the loadgen.Defaults
// family (N=12), named by its generator seed. Search cost varies several
// fold between members, so a workload that drew its schemas freely from
// the seed would measure mostly which schemas its seed happened to draw.
// The committed input table (inputs.json) fixes that: it groups family
// members by cost once, and a workload seed then picks members of fixed
// cost classes. (The HTTP workloads host one fixed member, serveSchema.)
//
// Sweep holds sweepListLen strata of generator seeds, cheapest first:
// sweepStratumSize*sweepListLen family members sorted by their
// design-sweep search work (EXPAND plus CHECK steps, an exact count) and
// cut into equal groups. A design-sweep list takes one member of every
// stratum. The pinnedStrata costliest strata span the family's long tail
// (their members' work differs several fold), so each keeps only its
// median member and every list carries the same tail.
//
// Regenerate with `bash perfbench/bench.sh --calibrate` (a few minutes);
// it also records every sweep member's verdict digest in digests.json,
// which design-sweep checks each schema's answers against.
type inputTables struct {
	Note  string    `json:"note"`
	Sweep [][]int64 `json:"sweep"`
}

const (
	sweepStratumSize = 10
	pinnedStrata     = 3
	// universeSeed seeds the generator seeds calibration draws from.
	universeSeed = 2002
)

func loadInputs(path string) (*inputTables, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading input tables: %w", err)
	}
	var t inputTables
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("reading input tables: %w", err)
	}
	if len(t.Sweep) != sweepListLen {
		return nil, fmt.Errorf("input tables in %s: want %d sweep strata, have %d", path, sweepListLen, len(t.Sweep))
	}
	for i, s := range t.Sweep {
		if len(s) == 0 {
			return nil, fmt.Errorf("input tables in %s: sweep stratum %d is empty", path, i)
		}
	}
	return &t, nil
}

// familySchema renders the family member with the given generator seed.
func familySchema(genSeed int64) (string, error) {
	spec := loadgen.Defaults().Schema
	spec.Seed = genSeed
	ds, err := gen.Schema(spec)
	if err != nil {
		return "", fmt.Errorf("generating schema %d: %w", genSeed, err)
	}
	return ds.Format(), nil
}

// calibrate measures the candidate family members, writes the input
// tables to path, and records the verdict digest of every sweep member
// in digestPath.
func calibrate(ctx context.Context, path, digestPath string) error {
	rng := rand.New(rand.NewSource(universeSeed))
	type cand struct {
		seed int64
		cost float64
	}

	var sweep []cand
	digests := map[int64]string{}
	for i := 0; i < sweepListLen*sweepStratumSize; i++ {
		s := rng.Int63()
		text, err := familySchema(s)
		if err != nil {
			return err
		}
		r, err := sweepOne(ctx, text, &poolMeter{}, nil)
		if err != nil {
			return fmt.Errorf("calibrating sweep schema %d: %w", s, err)
		}
		sweep = append(sweep, cand{s, float64(r.work.Expansions + r.work.Checks)})
		digests[s] = r.digest
	}
	sort.Slice(sweep, func(i, j int) bool {
		if sweep[i].cost != sweep[j].cost {
			return sweep[i].cost < sweep[j].cost
		}
		return sweep[i].seed < sweep[j].seed
	})
	t := inputTables{Note: "generated by perfbench --calibrate; see inputs.go"}
	for i := 0; i < sweepListLen; i++ {
		var stratum []int64
		for _, c := range sweep[i*sweepStratumSize : (i+1)*sweepStratumSize] {
			stratum = append(stratum, c.seed)
		}
		if i >= sweepListLen-pinnedStrata {
			stratum = stratum[len(stratum)/2 : len(stratum)/2+1]
		}
		t.Sweep = append(t.Sweep, stratum)
	}
	fmt.Fprintf(os.Stderr, "perfbench: sweep work per schema from %.0f to %.0f steps\n", sweep[0].cost, sweep[len(sweep)-1].cost)
	df := digestFile{Format: digestFormat, Digests: map[string]string{}}
	for _, stratum := range t.Sweep {
		for _, s := range stratum {
			df.Digests[strconv.FormatInt(s, 10)] = digests[s]
		}
	}
	if err := writeJSON(digestPath, df); err != nil {
		return err
	}
	return writeJSON(path, t)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
