package incr

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
)

// The incremental-vs-recompute benchmarks measure the subsystem's
// reason to exist: a single-fact delta against a warm materialization
// must beat recomputing the stratified fixpoint from scratch. Each
// incr iteration applies an insert and the matching retract, so the
// materialization returns to its warm baseline and iterations are
// identical; the recompute arm evaluates both resulting database
// versions from scratch for a like-for-like comparison.
func benchDeltaVsRecompute(b *testing.B, src string, base *fact.Instance, edge fact.Fact) {
	prog := datalog.MustParseProgram(src)
	ins := Delta{Insert: []fact.Fact{edge}}
	del := Delta{Retract: []fact.Fact{edge}}

	b.Run("incr", func(b *testing.B) {
		m, err := New(prog, base, Options{})
		if err != nil {
			b.Fatal(err)
		}
		warm := m.Len()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := m.Apply(ins); err != nil {
				b.Fatal(err)
			}
			if _, err := m.Apply(del); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if m.Len() != warm {
			b.Fatalf("materialization drifted: %d facts, warm %d", m.Len(), warm)
		}
		if err := m.Verify(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(warm), "facts/op")
	})

	b.Run("recompute", func(b *testing.B) {
		grown := base.Clone()
		grown.Add(edge)
		var facts int
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			with, err := prog.EvalStratified(grown, datalog.FixpointOptions{})
			if err != nil {
				b.Fatal(err)
			}
			without, err := prog.EvalStratified(base, datalog.FixpointOptions{})
			if err != nil {
				b.Fatal(err)
			}
			facts = without.Len()
			_ = with
		}
		b.ReportMetric(float64(facts), "facts/op")
	})
}

// BenchmarkIncrTCDelta: transitive closure over a 96-edge chain
// (|T| = 4656); the delta appends and removes a tail edge, a pure
// counting workload (insert propagation + non-recursive-free cascade
// through the recursive stratum's counting insert and DRed delete).
func BenchmarkIncrTCDelta(b *testing.B) {
	benchDeltaVsRecompute(b, tcProg, generate.Path("v", 96), fact.MustParseFact("E(v96,v97)"))
}

// BenchmarkIncrNoLoopDelta: the stratified-negation NoLoop program
// over a 96-edge chain; the tail-edge delta flows through all strata
// including the negation-guarded Off rules.
func BenchmarkIncrNoLoopDelta(b *testing.B) {
	benchDeltaVsRecompute(b, noLoopProg, generate.Path("n", 96), fact.MustParseFact("E(n96,n97)"))
}

// BenchmarkIncrShortcutDelta: inserting a shortcut edge into a chain
// whose closure already contains every implied pair — the delta is
// absorbed entirely by support-count increments, the cheapest case.
func BenchmarkIncrShortcutDelta(b *testing.B) {
	benchDeltaVsRecompute(b, tcProg, generate.Path("v", 96), fact.MustParseFact("E(v8,v88)"))
}

// BenchmarkIncrParallelDelta pins the parallel maintenance path on the
// same TC workload.
func BenchmarkIncrParallelDelta(b *testing.B) {
	prog := datalog.MustParseProgram(tcProg)
	base := generate.Path("v", 96)
	edge := fact.MustParseFact("E(v96,v97)")
	m, err := New(prog, base, Options{Mode: datalog.Parallel})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := m.Apply(Delta{Insert: []fact.Fact{edge}}); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Apply(Delta{Retract: []fact.Fact{edge}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrRingRetract is the DRed retract path on a 24-node
// directed ring (|T| = 576): retracting one edge over-deletes the
// whole closure — every T fact has a derivation through every edge —
// and rederives the 276 pairs the remaining path still connects. Each
// iteration retracts one edge (timed) and re-inserts it (untimed), in
// turn around the ring, so every timed apply starts from the same
// state up to rotation.
func BenchmarkIncrRingRetract(b *testing.B) {
	const n = 24
	base := generate.Cycle("r", n)
	edges := base.Facts()
	m, err := New(datalog.MustParseProgram(tcProg), base, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var overdeleted, rederived int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%n]
		st, err := m.Apply(Delta{Retract: []fact.Fact{e}})
		if err != nil {
			b.Fatal(err)
		}
		overdeleted += st.Overdeleted
		rederived += st.Rederived
		b.StopTimer()
		if _, err := m.Apply(Delta{Insert: []fact.Fact{e}}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if err := m.Verify(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(overdeleted)/float64(b.N), "overdeleted/op")
	b.ReportMetric(float64(rederived)/float64(b.N), "rederived/op")
}
