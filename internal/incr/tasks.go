package incr

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// A pinTask is one unit of delta enumeration: evaluate rule with its
// pinned atom ranging over pinFacts against a frozen view, keeping
// only valuations the accept filter admits. Tasks never mutate shared
// state — each enumeration folds into a private headAcc and the
// accumulators merge additively at the phase barrier, which is what
// makes serial and parallel execution produce identical results.
type pinTask struct {
	crule    *datalog.CompiledRule
	pin      int
	pinFacts []fact.Fact
	view     *datalog.IndexedInstance
	// accept filters valuations for exactly-once attribution (nil
	// admits all). It receives the matcher's live valuation — packed
	// atom keys only, no Bindings materialization — and must read only
	// state frozen for the phase.
	accept func(v *datalog.Valuation) bool
}

// keyedFact is a fact with its packed key (Fact.PackedKey), computed
// once per apply — from the matcher's head key bytes for derived facts
// — and shared by every set the fact enters: the delta flow, the DRed
// cone, the support table.
type keyedFact struct {
	f fact.Fact
	k string
}

// headEntry is one accumulated head fact with its derivation count.
type headEntry struct {
	keyedFact
	n int64
}

// headAcc accumulates derivation counts per ground head fact, keyed by
// the head's packed key. Repeat heads cost one map probe and no
// allocation; the fact and its key string are materialized only the
// first time a key is seen, and entries are carved from slabs.
type headAcc struct {
	m    map[string]*headEntry
	slab []headEntry
}

// add records the first derivation of a new head.
func (a *headAcc) add(kf keyedFact) {
	if len(a.slab) == 0 {
		a.slab = make([]headEntry, 32)
	}
	e := &a.slab[0]
	a.slab = a.slab[1:]
	*e = headEntry{keyedFact: kf, n: 1}
	a.m[kf.k] = e
}

func newHeadAcc() *headAcc {
	return &headAcc{m: make(map[string]*headEntry)}
}

func (a *headAcc) merge(b *headAcc) {
	for k, be := range b.m {
		if e, ok := a.m[k]; ok {
			e.n += be.n
		} else {
			a.m[k] = be
		}
	}
}

// entries returns the accumulated entries with their facts in sorted
// order. Packed keys sort in process-dependent interning order, so all
// observable ordering goes through fact.SortFacts instead.
func (a *headAcc) entries() []*headEntry {
	es := make([]*headEntry, 0, len(a.m))
	for _, e := range a.m {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].f.Compare(es[j].f) < 0 })
	return es
}

func runTask(t pinTask, acc *headAcc) error {
	return t.view.EvalPinnedVC(t.crule, t.pin, t.pinFacts, func(v *datalog.Valuation) error {
		if t.accept != nil && !t.accept(v) {
			return nil
		}
		k := v.HeadKey()
		if e, ok := acc.m[string(k)]; ok {
			e.n++
			return nil
		}
		h, err := v.Head()
		if err != nil {
			return err
		}
		acc.add(keyedFact{f: h, k: string(k)})
		return nil
	})
}

// runTasks executes the tasks and returns the merged accumulator. In
// parallel mode large pin lists are chunked so the pool stays busy;
// because the merge is a commutative sum, the result is independent of
// scheduling and of the worker count.
func (m *Materialization) runTasks(tasks []pinTask) (*headAcc, error) {
	if m.workers <= 1 || len(tasks) == 0 {
		acc := newHeadAcc()
		for _, t := range tasks {
			if err := runTask(t, acc); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}
	var sub []pinTask
	for _, t := range tasks {
		for _, chunk := range chunkPin(t.pinFacts, m.workers) {
			t2 := t
			t2.pinFacts = chunk
			sub = append(sub, t2)
		}
	}
	workers := m.workers
	if workers > len(sub) {
		workers = len(sub)
	}
	accs := make([]*headAcc, workers)
	errs := make([]error, workers)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		accs[w] = newHeadAcc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if errs[w] != nil {
					continue
				}
				errs[w] = runTask(sub[i], accs[w])
			}
		}()
	}
	for i := range sub {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	acc := accs[0]
	for _, other := range accs[1:] {
		acc.merge(other)
	}
	return acc, nil
}

// chunkPin splits a pin list into at most 2×workers chunks so a slow
// chunk cannot serialize the whole phase.
func chunkPin(fs []fact.Fact, workers int) [][]fact.Fact {
	if len(fs) == 0 {
		return nil
	}
	target := workers * 2
	size := (len(fs) + target - 1) / target
	if size < 1 {
		size = 1
	}
	var chunks [][]fact.Fact
	for start := 0; start < len(fs); start += size {
		end := start + size
		if end > len(fs) {
			end = len(fs)
		}
		chunks = append(chunks, fs[start:end])
	}
	return chunks
}

// parallelEach runs fn for every index, fanning out across the worker
// pool in parallel mode. fn must not mutate shared state; the DRed
// phases use this for independent derivability checks and recounts.
func (m *Materialization) parallelEach(n int, fn func(i int) error) error {
	if m.workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers := m.workers
	if workers > n {
		workers = n
	}
	errs := make([]error, workers)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if errs[w] == nil {
					errs[w] = fn(i)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// groupByRel groups facts by relation, preserving slice order. A
// single-relation slice — the usual wave of a one-relation stratum —
// is returned as its own group without copying.
func groupByRel(fs []fact.Fact) map[string][]fact.Fact {
	if len(fs) > 0 && slices.IndexFunc(fs, func(f fact.Fact) bool { return f.RelID() != fs[0].RelID() }) < 0 {
		return map[string][]fact.Fact{fs[0].Rel(): fs}
	}
	g := make(map[string][]fact.Fact)
	for _, f := range fs {
		g[f.Rel()] = append(g[f.Rel()], f)
	}
	return g
}

// splitKeyed returns the facts of a keyed slice as a pin list, and
// their packed keys as the set the accept filters probe with the
// matcher's scratch key bytes.
func splitKeyed(kfs []keyedFact) ([]fact.Fact, map[string]bool) {
	fs := make([]fact.Fact, len(kfs))
	set := make(map[string]bool, len(kfs))
	for i, kf := range kfs {
		fs[i] = kf.f
		set[kf.k] = true
	}
	return fs, set
}

// convertNeg rewrites the rule so its k-th negated atom becomes a
// positive atom that can be pinned to a delta: the atom is appended to
// the positive body (so every variable it shares is join-checked) and
// dropped from the guards. Pinning the converted atom's position to
// facts leaving (entering) the instance enumerates exactly the
// valuations the negation admits after (blocked before) the change.
// In the converted rule's valuations, PosKey(len(r.Pos)) addresses the
// pinned atom and NegKey(k2) for k2 < k still addresses r.Neg[k2].
func convertNeg(r datalog.Rule, k int) (datalog.Rule, int) {
	conv := datalog.Rule{Head: r.Head, Ineq: r.Ineq}
	conv.Pos = append(append([]datalog.Atom{}, r.Pos...), r.Neg[k])
	conv.Neg = append(append([]datalog.Atom{}, r.Neg[:k]...), r.Neg[k+1:]...)
	return conv, len(r.Pos)
}
