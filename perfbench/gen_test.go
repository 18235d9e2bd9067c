package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fact"
	"repro/internal/incr"
)

// inputsOf renders everything the program receives in one run of a
// workload: the request lines of the op stream, or for sim every
// topology's links and input facts.
func inputsOf(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	d, err := w.prepare(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	stream, _, err := d.oracle()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, o := range stream {
		b.Write(o.req)
	}
	if sd := d.sim; sd != nil {
		for k, topo := range sd.topos {
			for i := 0; i < topo.Len(); i++ {
				fmt.Fprintln(&b, topo.Node(i), topo.Neighbors(i))
			}
			fmt.Fprintln(&b, fact.FactStrings(sd.inputs[k].Facts()))
		}
	}
	return b.Bytes()
}

func TestRequestStreamsDeterministic(t *testing.T) {
	for _, w := range workloads {
		if !bytes.Equal(inputsOf(t, w, 7), inputsOf(t, w, 7)) {
			t.Errorf("%s: equal seeds gave different request streams", w.name)
		}
	}
	for _, name := range []string{"serve-churn", "sim"} {
		w := workloadByName(name)
		if bytes.Equal(inputsOf(t, w, 7), inputsOf(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestInstancesDeterministic(t *testing.T) {
	if !readInstance(3).Equal(readInstance(3)) || readInstance(3).Equal(readInstance(4)) {
		t.Error("serve probe instance is not a function of the seed alone")
	}
	r1, err := clusterInstance(3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := clusterInstance(3)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Error("cluster probe instance is not a function of the seed alone")
	}
	if simTopoSeed(3, 0) != simTopoSeed(3, 0) || !simInput(3, 1).Equal(simInput(3, 1)) {
		t.Error("sim inputs are not a function of the seed alone")
	}
}

// The churn cycle must leave the state where it started after every
// insert/retract pair, so the cost per op does not drift over a run.
func TestChurnCycleReturnsToBase(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		spec := churnInstance(seed)
		if len(spec.cycle) != churnCycle {
			t.Fatalf("seed %d: cycle has %d edges, want %d", seed, len(spec.cycle), churnCycle)
		}
		m, err := incr.New(tc, spec.base.Clone(), incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := m.Instance()
		for _, e := range spec.cycle {
			if !spec.base.Has(e) {
				t.Fatalf("seed %d: cycle edge %v is not in the base", seed, e)
			}
			st, err := m.Apply(incr.Delta{Retract: []fact.Fact{e}})
			if err != nil {
				t.Fatal(err)
			}
			if st.Overdeleted == 0 || st.Rederived == 0 {
				t.Errorf("seed %d: retracting %v over-deleted %d and re-derived %d, want both > 0", seed, e, st.Overdeleted, st.Rederived)
			}
			st, err = m.Apply(incr.Delta{Insert: []fact.Fact{e}})
			if err != nil {
				t.Fatal(err)
			}
			if st.DerivedAdded == 0 {
				t.Errorf("seed %d: inserting %v back derived nothing", seed, e)
			}
			if !m.Instance().Equal(base) {
				t.Fatalf("seed %d: state after retracting and inserting %v differs from the base", seed, e)
			}
		}
	}
}

func TestClusterPlacementSpreadsPaths(t *testing.T) {
	in, err := clusterInstance(11)
	if err != nil {
		t.Fatal(err)
	}
	homes := map[int]bool{}
	for _, home := range cluster.PlaceInstance(in, clusterShards) {
		homes[home] = true
	}
	if len(homes) != clusterShards {
		t.Errorf("paths land on %d shards, want %d", len(homes), clusterShards)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 200; i++ {
		s = append(s, i)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 100}, {0.9, 180}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..200, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]int64{42}, 0.99); got != 42 {
		t.Errorf("quantile of one sample = %d", got)
	}
}

func TestResponseChecks(t *testing.T) {
	st := &connState{}
	if !writeAck([]byte(`{"ok":true,"seq":5,"apply":{}}`), st) || st.seq != 5 {
		t.Fatal("first write ack rejected")
	}
	if writeAck([]byte(`{"ok":true,"seq":7,"apply":{}}`), st) {
		t.Error("write ack skipping a sequence number accepted")
	}
	if writeAck([]byte(`{"ok":false,"error":"x"}`), st) {
		t.Error("failed write accepted")
	}
	read := readsOwnWrite([]byte(`{"ok":true,"count":1,"facts":["T(a,b)"]`))
	if !read([]byte(`{"ok":true,"count":1,"facts":["T(a,b)"],"epoch":5}`), st) {
		t.Error("read of the own write's epoch rejected")
	}
	for _, bad := range []string{
		`{"ok":true,"count":1,"facts":["T(a,b)"],"epoch":4}`,
		`{"ok":true,"count":1,"facts":["T(a,b)"],"epoch":55}`,
		`{"ok":true,"count":1,"facts":["T(a,c)"],"epoch":5}`,
	} {
		if read([]byte(bad), st) {
			t.Errorf("accepted %s", bad)
		}
	}
}

// The client's per-op work, its response checks, allocates nothing.
func TestChecksDoNotAllocate(t *testing.T) {
	want := []byte(`{"ok":true,"count":1,"facts":["T(a,b)"]}`)
	ack := []byte(`{"ok":true,"seq":8,"apply":{}}`)
	read := []byte(`{"ok":true,"count":1,"facts":["T(a,b)"],"epoch":8}`)
	own := readsOwnWrite(want[:len(want)-1])
	eq := exact(want)
	allocs := testing.AllocsPerRun(100, func() {
		st := connState{seq: 7}
		if !writeAck(ack, &st) || !own(read, &st) || !eq(want, &st) {
			t.Fatal("check rejected a good response")
		}
	})
	if allocs != 0 {
		t.Errorf("checks allocate %v times per op", allocs)
	}
}

func TestSliceThroughput(t *testing.T) {
	r := loopResult{perSlice: newSlices(2 * time.Second), ops: 40, elapsed: 2 * time.Second}
	for i := 0; i < 40; i++ {
		countAt(r.perSlice, time.Duration(i)*50*time.Millisecond)
	}
	if got := r.opsPerSec(); got < 19.9 || got > 20.1 {
		t.Errorf("opsPerSec = %v, want 20", got)
	}
}

// Every workload runs clean for a short window: no failed check.
func TestWorkloadsShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		b, err := build(w, 5)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		lr, err := b.drive(w, 300*time.Millisecond, nil)
		b.d.stop()
		if err != nil || lr.firstErr != nil {
			t.Fatalf("%s: %v %v", w.name, err, lr.firstErr)
		}
		if lr.ops == 0 || lr.failed != 0 {
			t.Errorf("%s: %d ops, %d failed", w.name, lr.ops, lr.failed)
		}
	}
}
