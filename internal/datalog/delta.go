package datalog

import (
	"fmt"
	"slices"

	"repro/internal/fact"
)

// This file is the delta-hook surface the incremental view-maintenance
// engine (internal/incr) is built on. The semi-naive fixpoint already
// evaluates rules with one positive atom "pinned" to a delta; these
// hooks export that discipline — pinned enumeration (EvalPinnedVC) and
// head-bound matching (MatchHeadCount, MatchHeadAny) — without
// exposing the engine's internals. Everything here reads the
// IndexedInstance only; mutation stays with Add and Remove.
//
// The hooks work on the compiled matcher's slot environment directly:
// packed atom keys, head facts and head seeds all come from interned
// IDs with no string work, which is what the incremental engine's
// accept filters, derivability checks and support recounts run on.

// Valuation is one satisfying valuation of a compiled rule, exposed to
// EvalPinnedVC callbacks. It is a view into the matcher's live slot
// environment: valid only for the duration of the callback, and the
// byte slices returned by the *Key methods share one scratch buffer —
// each call invalidates the previous result.
type Valuation struct {
	cr   *cRule
	env  []fact.ID
	buf  []byte
	head []fact.ID
}

// appendAtomKey packs (relation, grounded args) of a compiled atom
// under the environment into the scratch buffer.
func (v *Valuation) appendAtomKey(a cAtom) []byte {
	buf := fact.AppendPackedIDs(v.buf[:0], a.rel)
	for _, t := range a.terms {
		buf = fact.AppendPackedIDs(buf, termID(t, v.env))
	}
	v.buf = buf
	return buf
}

// HeadKey returns the packed key of the valuation's ground head — the
// same bytes Fact.AppendPacked produces for the head fact. Valid until
// the next *Key call on this valuation.
func (v *Valuation) HeadKey() []byte { return v.appendAtomKey(v.cr.head) }

// PosKey returns the packed key of positive body atom k grounded under
// the valuation. Valid until the next *Key call.
func (v *Valuation) PosKey(k int) []byte { return v.appendAtomKey(v.cr.pos[k]) }

// NegKey returns the packed key of negated body atom k grounded under
// the valuation. Valid until the next *Key call.
func (v *Valuation) NegKey(k int) []byte { return v.appendAtomKey(v.cr.neg[k]) }

// Head materializes the valuation's ground head fact.
func (v *Valuation) Head() (fact.Fact, error) {
	v.head = slices.Grow(v.head[:0], len(v.cr.head.terms))[:len(v.cr.head.terms)]
	if err := v.cr.groundHead(v.env, v.head); err != nil {
		return fact.Fact{}, err
	}
	return fact.FromIDs(v.cr.head.rel, v.head), nil
}

// CompiledRule is a rule pre-compiled to the matcher's slot/ID form.
// Compiling is pure per-rule setup (interning, slot numbering); a
// maintenance engine evaluating the same rules on every delta
// compiles once and reuses the result. A CompiledRule is immutable
// and safe to share across goroutines.
type CompiledRule struct{ cr cRule }

// Compile pre-compiles a rule for EvalPinnedVC and MatchHead*.
func Compile(r Rule) *CompiledRule {
	cr := compileRule(r)
	return &CompiledRule{cr: cr}
}

// EvalPinnedVC enumerates every satisfying valuation of the compiled
// rule whose positive atom at index pin ranges over pinFacts (which
// need not be present in the instance), with all other atoms joined
// against the indexed instance and the guards (negation, inequalities)
// checked against it. emit receives a live Valuation — key bytes and
// the environment are only valid during the call. pinFacts must not
// contain duplicates, or valuations are enumerated once per copy.
//
// The instance must not be mutated while the call runs; concurrent
// EvalPinnedVC calls over the same instance are safe.
func (x *IndexedInstance) EvalPinnedVC(c *CompiledRule, pin int, pinFacts []fact.Fact, emit func(v *Valuation) error) error {
	if pin < 0 || pin >= len(c.cr.pos) {
		return fmt.Errorf("datalog: EvalPinnedVC pin %d out of range for %d positive atoms", pin, len(c.cr.pos))
	}
	if len(pinFacts) == 0 {
		return nil
	}
	val := &Valuation{cr: &c.cr}
	return c.cr.match(x.idx, x.data, pin, pinFacts, nil, func(env []fact.ID) error {
		val.env = env
		return emit(val)
	})
}

// MatchHeadCount returns the number of satisfying valuations of the
// compiled rule whose head grounds to f — the number of derivations of
// f through the rule — against the indexed instance. The head is bound
// straight from f's interned IDs: a relation or arity mismatch, a head
// constant f does not carry, or a repeated head variable that f fills
// with different values all count 0. It allocates nothing in steady
// state.
func (x *IndexedInstance) MatchHeadCount(c *CompiledRule, f fact.Fact) (int64, error) {
	return c.cr.matchHead(x.idx, x.data, f, false)
}

// MatchHeadAny reports whether f has at least one derivation through
// the compiled rule against the indexed instance — the derivability
// test of the DRed rederivation pass, stopping at the first witness.
// It agrees with MatchHeadCount(c, f) > 0.
func (x *IndexedInstance) MatchHeadAny(c *CompiledRule, f fact.Fact) (bool, error) {
	n, err := c.cr.matchHead(x.idx, x.data, f, true)
	return n > 0, err
}
