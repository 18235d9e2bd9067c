package incr

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
)

// ringN is the ring of the serving benchmark's churn workload: on a
// directed n-ring every T fact has a derivation through every edge, so
// retracting any edge over-deletes all n² closure facts and rederives
// the n(n-1)/2 pairs the remaining path still connects.
const ringN = 24

// TestRingRetractReinsert retracts and re-inserts every edge of the
// ring in turn, in serial and parallel modes, verifying the fact set
// and every support count against recomputation after each apply, and
// pinning the DRed work of each retract.
func TestRingRetractReinsert(t *testing.T) {
	for _, mode := range []datalog.EvalMode{datalog.SemiNaive, datalog.Parallel} {
		base := generate.Cycle("r", ringN)
		m := mustNew(t, tcProg, base, Options{Mode: mode, Workers: 3})
		full := m.Len()
		for _, e := range base.Facts() {
			st, err := m.Apply(Delta{Retract: []fact.Fact{e}})
			if err != nil {
				t.Fatalf("mode %v: retract %v: %v", mode, e, err)
			}
			checkAgainstRecompute(t, m)
			if st.Overdeleted != ringN*ringN || st.Rederived != ringN*(ringN-1)/2 {
				t.Fatalf("mode %v: retract %v: overdeleted %d, rederived %d; want %d, %d",
					mode, e, st.Overdeleted, st.Rederived, ringN*ringN, ringN*(ringN-1)/2)
			}
			if _, err := m.Apply(Delta{Insert: []fact.Fact{e}}); err != nil {
				t.Fatalf("mode %v: re-insert %v: %v", mode, e, err)
			}
			checkAgainstRecompute(t, m)
			if m.Len() != full {
				t.Fatalf("mode %v: %d facts after re-inserting %v, want %d", mode, m.Len(), e, full)
			}
		}
	}
}

// TestDerivableAllocs gates the DRed rederivation probe: seeding each
// rule's head from the fact's interned IDs must cost at most one
// allocation per derivable call (in steady state none), whether the
// fact is derivable or not.
func TestDerivableAllocs(t *testing.T) {
	base := generate.Cycle("r", ringN)
	m := mustNew(t, tcProg, base, Options{})
	cut := fact.New("E", "r3", "r4")
	if _, err := m.Apply(Delta{Retract: []fact.Fact{cut}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		f    fact.Fact
		want bool
	}{
		{fact.New("T", "r4", "r3"), true},  // along the remaining path
		{fact.New("T", "r3", "r4"), false}, // needs the cut edge
	} {
		var got bool
		var err error
		avg := testing.AllocsPerRun(100, func() { got, err = m.derivable(tc.f) })
		if err != nil || got != tc.want {
			t.Fatalf("derivable(%v) = %v, %v; want %v", tc.f, got, err, tc.want)
		}
		if avg > 1 {
			t.Errorf("derivable(%v) allocates %v objects per call, want <= 1", tc.f, avg)
		}
	}
}
