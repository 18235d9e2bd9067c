package datalog

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
)

// --- delta-hook surface (EvalPinnedVC, MatchHeadCount, MatchHeadAny) ---

// pinnedHeads collects the ground heads EvalPinnedVC enumerates.
func pinnedHeads(t *testing.T, x *IndexedInstance, r Rule, pin int, pinFacts []fact.Fact) ([]string, error) {
	t.Helper()
	var heads []string
	err := x.EvalPinnedVC(Compile(r), pin, pinFacts, func(v *Valuation) error {
		h, err := v.Head()
		if err != nil {
			return err
		}
		if got, want := string(v.HeadKey()), h.PackedKey(); got != want {
			t.Errorf("HeadKey of %v = %x, want %x", h, got, want)
		}
		heads = append(heads, h.String())
		return nil
	})
	return heads, err
}

func TestBindHead(t *testing.T) {
	// The head binds from the fact's IDs: the repeated variable and the
	// constant both constrain, and every mismatch counts nothing.
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,b)`))
	c := Compile(mustRule(t, `O(x,x,"c") :- E(x,y).`))
	if n, err := x.MatchHeadCount(c, fact.New("O", "a", "a", "c")); err != nil || n != 1 {
		t.Fatalf("MatchHeadCount(O(a,a,c)) = %d, %v; want 1", n, err)
	}
	for _, bad := range []fact.Fact{
		fact.New("O", "a", "b", "c"), // repeated variable disagrees
		fact.New("O", "a", "a", "d"), // constant mismatch
		fact.New("O", "a", "a"),      // arity mismatch
		fact.New("P", "a", "a", "c"), // relation mismatch
		fact.New("O", "z", "z", "c"), // unifies, but no E(z,_)
	} {
		n, err := x.MatchHeadCount(c, bad)
		if err != nil || n != 0 {
			t.Errorf("MatchHeadCount(%v) = %d, %v; want 0", bad, n, err)
		}
		if ok, err := x.MatchHeadAny(c, bad); err != nil || ok {
			t.Errorf("MatchHeadAny(%v) = %v, %v; want false", bad, ok, err)
		}
	}
}

func TestEvalPinned(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,c) E(c,d)`))
	r := mustRule(t, `T(x,z) :- E(x,y), E(y,z).`)

	// Pinning E(b,c) at position 0 enumerates only joins through it.
	pin := []fact.Fact{fact.New("E", "b", "c")}
	heads, err := pinnedHeads(t, x, r, 0, pin)
	if err != nil {
		t.Fatalf("EvalPinnedVC: %v", err)
	}
	if len(heads) != 1 || heads[0] != "T(b,d)" {
		t.Fatalf("pinned heads = %v, want [T(b,d)]", heads)
	}

	// The pinned fact need not be present in the instance.
	heads, err = pinnedHeads(t, x, r, 1, []fact.Fact{fact.New("E", "d", "e")})
	if err != nil {
		t.Fatalf("EvalPinnedVC ghost: %v", err)
	}
	if len(heads) != 1 || heads[0] != "T(c,e)" {
		t.Fatalf("ghost-pinned heads = %v, want [T(c,e)]", heads)
	}

	if _, err := pinnedHeads(t, x, r, 2, pin); err == nil {
		t.Fatal("EvalPinnedVC accepted out-of-range pin")
	}
}

func TestMatchHeadCountsDerivations(t *testing.T) {
	// A diamond: T(a,d) has two length-2 derivations.
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,d) E(a,c) E(c,d)`))
	c := Compile(mustRule(t, `T(x,z) :- E(x,y), E(y,z).`))
	n, err := x.MatchHeadCount(c, fact.New("T", "a", "d"))
	if err != nil || n != 2 {
		t.Fatalf("MatchHeadCount(T(a,d)) = %d, %v; want 2", n, err)
	}
	if ok, err := x.MatchHeadAny(c, fact.New("T", "a", "d")); err != nil || !ok {
		t.Fatalf("MatchHeadAny(T(a,d)) = %v, %v; want true", ok, err)
	}
}

// bruteHeadCount counts the full valuations of r over the instance's
// active domain whose head grounds to f, by trying every assignment of
// the rule's variables — an oracle independent of the matcher.
func bruteHeadCount(r Rule, in *fact.Instance, f fact.Fact) int64 {
	var vars []string
	seen := map[string]bool{}
	note := func(ts []Term) {
		for _, t := range ts {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				vars = append(vars, t.Var)
			}
		}
	}
	for _, a := range r.Pos {
		note(a.Args)
	}
	dom := in.ADom().Sorted()
	val := map[string]fact.Value{}
	ground := func(a Atom) fact.Fact {
		args := make([]fact.Value, len(a.Args))
		for i, t := range a.Args {
			if t.IsVar() {
				args[i] = val[t.Var]
			} else {
				args[i] = t.Const
			}
		}
		return fact.New(a.Rel, args...)
	}
	term := func(t Term) fact.Value {
		if t.IsVar() {
			return val[t.Var]
		}
		return t.Const
	}
	var n int64
	var walk func(i int)
	walk = func(i int) {
		if i < len(vars) {
			for _, d := range dom {
				val[vars[i]] = d
				walk(i + 1)
			}
			return
		}
		for _, a := range r.Pos {
			if !in.Has(ground(a)) {
				return
			}
		}
		for _, a := range r.Neg {
			if in.Has(ground(a)) {
				return
			}
		}
		for _, q := range r.Ineq {
			if term(q.A) == term(q.B) {
				return
			}
		}
		if ground(r.Head).Equal(f) {
			n++
		}
	}
	walk(0)
	return n
}

// TestMatchHeadDifferential checks head seeding against the brute-force
// oracle: on random-program rules and on hand-written heads with
// constants and repeated variables, MatchHeadCount(c, f) equals the
// number of full valuations whose head grounds to f for every
// candidate f over a small domain, MatchHeadAny agrees with count > 0,
// and heads of another relation or arity count 0.
func TestMatchHeadDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rels := []struct {
		name  string
		arity int
	}{{"E", 2}, {"A", 1}, {"P0", 1}, {"P1", 2}, {"P2", 2}, {"P3", 1}, {"T", 2}, {"P", 2}}
	dom := []fact.Value{"a", "b", "c"}
	var rules []Rule
	for i := 0; i < 12; i++ {
		p, err := ParseProgram(generate.RandomProgram(rng, 4))
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, p.Rules...)
	}
	for _, src := range []string{
		`T("a",y) :- E("a",y).`,
		`T("a",y) :- E(x,y), E(y,x).`,
		`P(x,x) :- E(x,y), E(y,x).`,
		`P(x,x) :- E(x,y), !A(y).`,
		`T(x,"c") :- E(x,y), E(y,z), x != z.`,
	} {
		rules = append(rules, mustRule(t, src))
	}
	for trial := 0; trial < 8; trial++ {
		in := fact.NewInstance()
		for _, rel := range rels {
			for k := 0; k < 2+rng.Intn(5); k++ {
				args := make([]fact.Value, rel.arity)
				for j := range args {
					args[j] = dom[rng.Intn(len(dom))]
				}
				in.Add(fact.New(rel.name, args...))
			}
		}
		x := IndexInstance(in.Clone())
		for _, r := range rules {
			c := Compile(r)
			// Every fact over the head relation and domain, plus a head
			// of the wrong arity and one of a relation the rule does
			// not define.
			var cands []fact.Fact
			var fill func(args []fact.Value)
			fill = func(args []fact.Value) {
				if len(args) == len(r.Head.Args) {
					cands = append(cands, fact.New(r.Head.Rel, args...))
					return
				}
				for _, d := range dom {
					fill(append(args, d))
				}
			}
			fill(nil)
			wrongArity := make([]fact.Value, len(r.Head.Args)+1)
			for j := range wrongArity {
				wrongArity[j] = "a"
			}
			cands = append(cands, fact.New(r.Head.Rel, wrongArity...), fact.New("Zz", "a"))
			for _, f := range cands {
				want := int64(0)
				if f.Rel() == r.Head.Rel && f.Arity() == len(r.Head.Args) {
					want = bruteHeadCount(r, in, f)
				}
				got, err := x.MatchHeadCount(c, f)
				if err != nil {
					t.Fatalf("%v: MatchHeadCount(%v): %v", r, f, err)
				}
				if got != want {
					t.Fatalf("%v over %v: MatchHeadCount(%v) = %d, brute force %d", r, in, f, got, want)
				}
				any, err := x.MatchHeadAny(c, f)
				if err != nil || any != (want > 0) {
					t.Fatalf("%v: MatchHeadAny(%v) = %v, %v; count %d", r, f, any, err, want)
				}
			}
		}
	}
}

// --- mutation and view semantics (Remove, RemoveAll, Clone, CloneView) ---

func relNames(x *IndexedInstance, rel string, arity int) []string {
	var out []string
	atom := Atom{Rel: rel, Args: make([]Term, arity)}
	for i := range atom.Args {
		atom.Args[i] = V("v" + string(rune('a'+i)))
	}
	for _, f := range x.idx.candidates(atom, Bindings{}) {
		out = append(out, f.String())
	}
	sort.Strings(out)
	return out
}

func TestRemoveAllBatches(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,c) E(c,d) F(a) F(b)`))
	n := x.RemoveAll([]fact.Fact{
		fact.New("E", "a", "b"),
		fact.New("F", "b"),
		fact.New("E", "z", "z"), // absent: skipped, not counted
	})
	if n != 2 {
		t.Fatalf("RemoveAll removed %d, want 2", n)
	}
	if x.Len() != 3 || x.Has(fact.New("E", "a", "b")) || x.Has(fact.New("F", "b")) {
		t.Fatalf("state after RemoveAll: %v", x.Instance())
	}
	// The index agrees with the instance.
	if got := relNames(x, "E", 2); len(got) != 2 {
		t.Fatalf("E posting list = %v, want 2 facts", got)
	}
	// Removed argument keys are gone, shared ones remain.
	if lp := x.idx.byArg[idxKey{fact.InternString("E"), 0, fact.InternString("a")}]; lp != nil && len(*lp) != 0 {
		t.Fatalf("byArg[E,0,a] = %v, want empty", *lp)
	}
	if lp := x.idx.byArg[idxKey{fact.InternString("E"), 1, fact.InternString("c")}]; lp == nil || len(*lp) != 1 {
		t.Fatalf("byArg[E,1,c] = %v, want 1 fact", lp)
	}
}

// TestCloneIsolation checks both clone flavors against mutation of the
// original: a full Clone stays mutable and independent; a CloneView
// answers reads as of the snapshot.
func TestCloneIsolation(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,c)`))
	clone := x.Clone()
	view := x.CloneView()

	x.Add(fact.New("E", "c", "d"))
	x.Remove(fact.New("E", "a", "b"))

	for name, snap := range map[string]*IndexedInstance{"Clone": clone, "CloneView": view} {
		if snap.Len() != 2 {
			t.Errorf("%s.Len = %d after mutating original, want 2", name, snap.Len())
		}
		if !snap.Has(fact.New("E", "a", "b")) || snap.Has(fact.New("E", "c", "d")) {
			t.Errorf("%s sees the original's mutations", name)
		}
		if got := relNames(snap, "E", 2); len(got) != 2 {
			t.Errorf("%s posting list = %v, want the 2 snapshot facts", name, got)
		}
	}

	// The full clone is independently mutable.
	clone.Add(fact.New("E", "x", "y"))
	if x.Has(fact.New("E", "x", "y")) || view.Has(fact.New("E", "x", "y")) {
		t.Error("mutating the clone leaked into the original or the view")
	}

	// Negation guards on a view read the snapshot, not the original.
	r := mustRule(t, `O(x) :- E(x,y), !E(y,x).`)
	x.Add(fact.New("E", "b", "a")) // would block O(a) now
	heads, err := pinnedHeads(t, view, r, 0, []fact.Fact{fact.New("E", "a", "b")})
	if err != nil {
		t.Fatalf("EvalPinnedVC on view: %v", err)
	}
	if len(heads) != 1 {
		t.Fatalf("view negation saw post-snapshot facts: heads = %v", heads)
	}
}

func TestCloneViewIsReadOnly(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b)`))
	view := x.CloneView()
	for name, mutate := range map[string]func(){
		"Add":       func() { view.Add(fact.New("E", "c", "d")) },
		"Remove":    func() { view.Remove(fact.New("E", "a", "b")) },
		"RemoveAll": func() { view.RemoveAll([]fact.Fact{fact.New("E", "a", "b")}) },
		"Instance":  func() { view.Instance() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a CloneView did not panic", name)
				}
			}()
			mutate()
		}()
	}
}
