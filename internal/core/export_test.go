package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"

	"olapdim/internal/constraint"
)

// Hooks for the external core_test package, whose golden schemas come
// from packages that import core.

// DeriveCacheMax is the bound of the per-schema Derive cache.
const DeriveCacheMax = deriveCacheMax

// RandomDS is randomDS drawn from a source seeded with seed.
func RandomDS(seed int64) *DimensionSchema { return randomDS(rand.New(rand.NewSource(seed))) }

// DeriveSubset is deriveSubset.
func (cs *Compiled) DeriveSubset(keep []int) (*Compiled, error) { return cs.deriveSubset(keep) }

// DeriveKeepAdd is derive: Σ restricted to keep, then extra, as each of
// Lint's redundancy probes builds it.
func (cs *Compiled) DeriveKeepAdd(keep []int, extra constraint.Expr) (*Compiled, error) {
	return cs.derive(keep, extra)
}

// CheckDerived reports how a derived compiled schema differs from a full
// Compile of its source: the fingerprint invariant, and every table that
// depends on Σ.
func CheckDerived(d *Compiled) error {
	if got, want := d.Fingerprint(), schemaFingerprint(d.Source()); got != want {
		return fmt.Errorf("Fingerprint %.12s.. != schemaFingerprint(Source()) %.12s..", got, want)
	}
	full, err := Compile(d.Source())
	if err != nil {
		return fmt.Errorf("full compile of the source: %w", err)
	}
	if len(d.sigma) != len(full.sigma) {
		return fmt.Errorf("%d compiled constraints, full compile has %d", len(d.sigma), len(full.sigma))
	}
	for i, cc := range d.sigma {
		want := full.sigma[i]
		if cc.expr.String() != want.expr.String() || cc.root != want.root ||
			!reflect.DeepEqual(cc.prog, want.prog) || !slices.Equal(cc.forced, want.forced) {
			return fmt.Errorf("constraint %d: %s root %d program %v forced %v, full compile: %s root %d program %v forced %v",
				i, cc.expr, cc.root, cc.prog, cc.forced, want.expr, want.root, want.prog, want.forced)
		}
	}
	if !slices.EqualFunc(d.into, full.into, slices.Equal[[]int32]) {
		return fmt.Errorf("into %v, full compile %v", d.into, full.into)
	}
	if !slices.EqualFunc(d.sigmaFor, full.sigmaFor, slices.Equal[[]int32]) {
		return fmt.Errorf("sigmaFor %v, full compile %v", d.sigmaFor, full.sigmaFor)
	}
	if !maps.EqualFunc(d.consts, full.consts, slices.Equal[[]string]) {
		return fmt.Errorf("consts %v, full compile %v", d.consts, full.consts)
	}
	return nil
}
