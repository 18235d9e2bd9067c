package datalog

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/fact"
)

// This file implements the compiled-rule matcher: before a fixpoint
// (or a delta-hook enumeration) runs, each Rule is compiled into a
// form whose variables are dense slots and whose relation names and
// constants are interned IDs. Matching then works entirely on
// integers — an environment is a flat []fact.ID indexed by slot, an
// atom match is a handful of uint32 compares, and grounding a head
// writes IDs into a scratch tuple — so the join/dedup hot path of the
// engines allocates nothing per candidate fact and nothing per
// duplicate derivation (see alloc_test.go). The string-typed Rule and
// Bindings APIs remain the public surface; compiled rules are the
// engine-internal representation they lower to.

// cTerm is a compiled term: a variable slot, or an interned constant.
type cTerm struct {
	slot int32   // variable slot, or -1 for a constant
	cnst fact.ID // constant symbol when slot < 0
}

// cAtom is a compiled atom over interned symbols.
type cAtom struct {
	rel   fact.ID
	terms []cTerm
}

// cIneq is a compiled inequality guard.
type cIneq struct{ a, b cTerm }

// cRule is a compiled rule. Variables are numbered by first
// occurrence scanning the positive body, then the negative body, the
// head, and the inequalities; vars maps slots back to names for the
// Bindings-typed compatibility APIs. A compiled rule is immutable
// after compileRule returns and safe to share across goroutines.
type cRule struct {
	src      Rule
	head     cAtom
	pos      []cAtom
	neg      []cAtom
	ineq     []cIneq
	vars     []string
	negArity int // max arity over neg, for the guard scratch tuple
	// spare caches one matcher between enumerations of the rule (see
	// newMatcher). It is the rule's only mutable state, handed over
	// atomically.
	spare *atomic.Pointer[matcher]
}

func compileRule(r Rule) cRule {
	cr := cRule{src: r, spare: new(atomic.Pointer[matcher])}
	slot := func(name string) int32 {
		for i, v := range cr.vars {
			if v == name {
				return int32(i)
			}
		}
		cr.vars = append(cr.vars, name)
		return int32(len(cr.vars) - 1)
	}
	ct := func(t Term) cTerm {
		if t.IsVar() {
			return cTerm{slot: slot(t.Var)}
		}
		return cTerm{slot: -1, cnst: fact.Intern(t.Const)}
	}
	ca := func(a Atom) cAtom {
		at := cAtom{rel: fact.InternString(a.Rel), terms: make([]cTerm, len(a.Args))}
		for i, t := range a.Args {
			at.terms[i] = ct(t)
		}
		return at
	}
	cr.pos = make([]cAtom, len(r.Pos))
	for i, a := range r.Pos {
		cr.pos[i] = ca(a)
	}
	cr.neg = make([]cAtom, len(r.Neg))
	for i, a := range r.Neg {
		cr.neg[i] = ca(a)
		if len(a.Args) > cr.negArity {
			cr.negArity = len(a.Args)
		}
	}
	cr.head = ca(r.Head)
	cr.ineq = make([]cIneq, len(r.Ineq))
	for i, q := range r.Ineq {
		cr.ineq[i] = cIneq{a: ct(q.A), b: ct(q.B)}
	}
	return cr
}

func compileRules(rules []Rule) []cRule {
	crs := make([]cRule, len(rules))
	for i, r := range rules {
		crs[i] = compileRule(r)
	}
	return crs
}

// termID resolves a compiled term under the environment (NoID when the
// term is an unbound variable).
func termID(t cTerm, env []fact.ID) fact.ID {
	if t.slot < 0 {
		return t.cnst
	}
	return env[t.slot]
}

// checkGuards verifies the inequalities and negative atoms under a
// complete environment, against the instance held in data — or, when
// data is nil (a CloneView), against the index. scratch is the
// caller's reusable grounding tuple.
func (cr *cRule) checkGuards(env []fact.ID, idx *relIndex, data *fact.Instance, scratch []fact.ID) (bool, error) {
	for _, q := range cr.ineq {
		av, bv := termID(q.a, env), termID(q.b, env)
		if av == fact.NoID || bv == fact.NoID {
			return false, fmt.Errorf("datalog: unbound variable in inequality of %v", cr.src)
		}
		if av == bv {
			return false, nil
		}
	}
	for _, a := range cr.neg {
		scratch = scratch[:0]
		for _, t := range a.terms {
			v := termID(t, env)
			if v == fact.NoID {
				return false, fmt.Errorf("datalog: unbound variable in negated atom of %v", cr.src)
			}
			scratch = append(scratch, v)
		}
		if data != nil {
			if data.HasIDs(a.rel, scratch) {
				return false, nil
			}
		} else if idx.hasIDs(a.rel, scratch) {
			return false, nil
		}
	}
	return true, nil
}

// matcher is the scratch state of one enumeration: the slot
// environment, the used-atom flags and the guard tuple, plus the
// call's parameters so the recursive walk is a method rather than a
// heap-allocated closure. Each compiled rule keeps one spare matcher
// that an enumeration takes for its duration and hands back, so serial
// callers — the per-fact head probes of the incremental engine
// (matchHead) above all — allocate nothing in steady state; concurrent
// enumerations of the same rule allocate their own.
type matcher struct {
	cr       *cRule
	idx      *relIndex
	data     *fact.Instance
	env      []fact.ID
	used     []bool
	guard    []fact.ID
	pin      int
	pinFacts []fact.Fact
	scanned  int64
	// yield receives every satisfying environment. When nil the
	// matcher only counts them in n, stopping at the first one with
	// errStopMatch when stop is set.
	yield func(env []fact.ID) error
	n     int64
	stop  bool
}

// errStopMatch ends a stop-at-first enumeration early.
var errStopMatch = errors.New("datalog: stop enumeration")

// newMatcher takes the rule's spare matcher (or a fresh one) with
// every slot unbound.
func (cr *cRule) newMatcher(idx *relIndex, data *fact.Instance) *matcher {
	m := cr.spare.Swap(nil)
	if m == nil {
		m = new(matcher)
	}
	m.cr, m.idx, m.data, m.pin = cr, idx, data, -1
	m.env = slices.Grow(m.env[:0], len(cr.vars))[:len(cr.vars)]
	for i := range m.env {
		m.env[i] = fact.NoID
	}
	m.used = slices.Grow(m.used[:0], len(cr.pos))[:len(cr.pos)]
	clear(m.used)
	m.guard = slices.Grow(m.guard[:0], cr.negArity)
	return m
}

// release hands the matcher back as its rule's spare, dropping its
// references so the spare does not pin instances or callbacks.
func (m *matcher) release() {
	spare := m.cr.spare
	*m = matcher{env: m.env, used: m.used, guard: m.guard}
	spare.Store(m)
}

// match enumerates all satisfying environments of cr's body against
// the index (membership guards against data when non-nil, else the
// index) and calls yield for each. The environment passed to yield is
// live — callers needing to retain values must copy.
//
// If pin >= 0, the positive atom at that index is matched first and
// ranges over pinFacts instead of the index: this implements both the
// semi-naive delta discipline and the parallel engine's work
// partitioning.
//
// The remaining atoms are ordered by selectivity exactly as the
// string-based matcher did: at each step the unmatched atom with the
// fewest candidate facts under the current environment is matched
// next. scanned, when non-nil, accumulates the number of candidate
// facts iterated.
func (cr *cRule) match(idx *relIndex, data *fact.Instance, pin int, pinFacts []fact.Fact, scanned *int64, yield func(env []fact.ID) error) error {
	m := cr.newMatcher(idx, data)
	m.pin, m.pinFacts, m.yield = pin, pinFacts, yield
	err := m.rec(0)
	if scanned != nil {
		*scanned += m.scanned
	}
	m.release()
	return err
}

// matchHead counts the satisfying valuations of cr whose head grounds
// to f — the derivations of f through the rule — stopping at the first
// when stop is set. The environment is seeded straight from f's IDs
// through the compiled head: constants must match, and a repeated
// variable must see equal IDs. A relation or arity mismatch counts 0.
func (cr *cRule) matchHead(idx *relIndex, data *fact.Instance, f fact.Fact, stop bool) (int64, error) {
	args := f.ArgIDs()
	if f.RelID() != cr.head.rel || len(args) != len(cr.head.terms) {
		return 0, nil
	}
	m := cr.newMatcher(idx, data)
	defer m.release()
	for i, t := range cr.head.terms {
		v := args[i]
		if t.slot < 0 {
			if t.cnst != v {
				return 0, nil
			}
		} else if b := m.env[t.slot]; b == fact.NoID {
			m.env[t.slot] = v
		} else if b != v {
			return 0, nil
		}
	}
	m.stop = stop
	if err := m.rec(0); err != nil && err != errStopMatch {
		return 0, err
	}
	return m.n, nil
}

// rec matches the positive atoms from depth on, then checks the guards
// and yields (or counts) each complete environment.
func (m *matcher) rec(depth int) error {
	cr, env := m.cr, m.env
	n := len(cr.pos)
	if depth == n {
		ok, err := cr.checkGuards(env, m.idx, m.data, m.guard)
		if err != nil || !ok {
			return err
		}
		if m.yield != nil {
			return m.yield(env)
		}
		m.n++
		if m.stop {
			return errStopMatch
		}
		return nil
	}
	// Pick the next atom: the pinned atom first, then greedily the
	// most selective remaining one.
	var k int
	var cand []fact.Fact
	if depth == 0 && m.pin >= 0 {
		k, cand = m.pin, m.pinFacts
	} else {
		k = -1
		for j := 0; j < n; j++ {
			if m.used[j] {
				continue
			}
			c := m.idx.candidatesC(cr.pos[j], env)
			if k < 0 || len(c) < len(cand) {
				k, cand = j, c
				if len(cand) == 0 {
					break
				}
			}
		}
	}
	m.used[k] = true
	m.scanned += int64(len(cand))
	rel, terms := cr.pos[k].rel, cr.pos[k].terms
	var addedArr [16]int32
	for _, f := range cand {
		if f.RelID() != rel {
			continue
		}
		args := f.ArgIDs()
		if len(args) != len(terms) {
			continue
		}
		added := addedArr[:0]
		ok := true
		for i, t := range terms {
			v := args[i]
			if t.slot < 0 {
				if t.cnst != v {
					ok = false
					break
				}
			} else if b := env[t.slot]; b == fact.NoID {
				env[t.slot] = v
				added = append(added, t.slot)
			} else if b != v {
				ok = false
				break
			}
		}
		if ok {
			if err := m.rec(depth + 1); err != nil {
				m.used[k] = false
				return err
			}
		}
		for _, s := range added {
			env[s] = fact.NoID
		}
	}
	m.used[k] = false
	return nil
}

// groundHead writes the head tuple under env into dst (which must have
// the head's arity). All head variables must be bound, guaranteed by
// safety after the positive body matched.
func (cr *cRule) groundHead(env []fact.ID, dst []fact.ID) error {
	for i, t := range cr.head.terms {
		if t.slot < 0 {
			dst[i] = t.cnst
			continue
		}
		v := env[t.slot]
		if v == fact.NoID {
			return fmt.Errorf("datalog: unbound variable %s in %v", cr.vars[t.slot], cr.src.Head)
		}
		dst[i] = v
	}
	return nil
}

// evalRuleC enumerates all satisfying environments of cr and passes
// the derived head tuple to emit as (relation, args) IDs. The args
// slice is scratch, valid only for the duration of the emit call — the
// round executors test membership and insert columnar rows from it
// without ever materializing a Fact for duplicates.
func evalRuleC(cr *cRule, idx *relIndex, data *fact.Instance, pin int, pinFacts []fact.Fact, scanned *int64, emit func(rel fact.ID, args []fact.ID) error) error {
	head := make([]fact.ID, len(cr.head.terms))
	return cr.match(idx, data, pin, pinFacts, scanned, func(env []fact.ID) error {
		if err := cr.groundHead(env, head); err != nil {
			return err
		}
		return emit(cr.head.rel, head)
	})
}

// bindings converts an environment into the public Bindings form for
// the Bindings-typed Valuations APIs.
func (cr *cRule) bindings(env []fact.ID) Bindings {
	b := make(Bindings, len(cr.vars))
	for i, name := range cr.vars {
		if env[i] != fact.NoID {
			b[name] = fact.Symbol(env[i])
		}
	}
	return b
}
