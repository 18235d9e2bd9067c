package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/fact"
)

// Every instance, op stream and topology is a pure function of the
// seed argument. The seed picks names, path orders and the order of
// the churn cycle inside a fixed shape, so the bytes change from seed
// to seed while the work per op stays the same.

// tcProgram is transitive closure, the paper's canonical monotone
// query and the program every serving workload materializes.
const tcProgram = "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\n"

// Request lines of the benchmark's op classes (without the newline).
const queryT = `{"op":"query","rel":"T"}`

// Input shapes of the workloads and the per-layer probes. Each timed
// class gets at least a thousand samples in a run.
const (
	readChains = 6  // serve and datalog probes: disjoint paths
	readLen    = 56 // nodes per path

	churnLen   = 24 // serve-churn: nodes of the base ring
	churnCycle = 8  // ring edges in the churn cycle

	clusterShards = 4  // cluster probe: shards, one path each
	clusterLen    = 64 // nodes per shard's path (256 in total)

	simNodes  = 32 // power-law topology size
	simValues = 6  // path nodes of the gossiped input
	simTopos  = 16 // topologies per seed, run in turn
)

// newRand returns the generator of one named stream of a seed. Streams
// are independent, so drawing more from one leaves the others as they
// were.
func newRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// namespace draws a fixed-width node-name prefix. It starts with the
// letter i places in the alphabet, which keeps the prefixes of one
// instance distinct and fixes their sort order whatever the seed.
func namespace(rng *rand.Rand, i int) string {
	b := []byte{byte('a' + i), 0, 0, 0}
	for k := 1; k < len(b); k++ {
		b[k] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// path names n nodes in path order. Node names carry a seeded
// permutation of 0..n-1, so path order and sort order differ.
func path(rng *rand.Rand, prefix string, n int) []fact.Value {
	p := make([]fact.Value, n)
	for i, k := range rng.Perm(n) {
		p[i] = fact.Value(fmt.Sprintf("%s%03d", prefix, k))
	}
	return p
}

func edge(a, b fact.Value) fact.Fact { return fact.New("E", a, b) }

func addPath(in *fact.Instance, p []fact.Value) {
	for i := 0; i+1 < len(p); i++ {
		in.Add(edge(p[i], p[i+1]))
	}
}

// readInstance is the base of the serve and datalog probes:
// readChains disjoint paths.
func readInstance(seed int64) *fact.Instance {
	rng := newRand(seed, "serve-probe")
	in := fact.NewInstance()
	for c := 0; c < readChains; c++ {
		addPath(in, path(rng, namespace(rng, c), readLen))
	}
	return in
}

// churnSpec is the serve-churn base component and its edge cycle.
type churnSpec struct {
	base *fact.Instance
	// cycle holds edges of the base ring. The op stream retracts and
	// re-inserts each in turn, so the state is the base again after
	// every pair.
	cycle []fact.Fact
}

// churnInstance draws the serve-churn base, a directed ring of
// churnLen nodes: one component whose closure is every pair. Retracting
// a ring edge makes DRed over-delete the pairs derived through it and
// re-derive those the remaining path still connects; inserting it back
// adds the rest by counting. Every ring edge is alike, so every cycle
// edge churns the same amount of state; the seed picks the node names,
// the ring order and which edges form the cycle, in which order.
func churnInstance(seed int64) churnSpec {
	rng := newRand(seed, "serve-churn")
	ring := path(rng, namespace(rng, 0), churnLen)
	in := fact.NewInstance()
	addPath(in, ring)
	in.Add(edge(ring[churnLen-1], ring[0]))
	var cycle []fact.Fact
	for _, i := range rng.Perm(churnLen)[:churnCycle] {
		cycle = append(cycle, edge(ring[i], ring[(i+1)%churnLen]))
	}
	return churnSpec{base: in, cycle: cycle}
}

// clusterInstance is the cluster probe's base: one path per shard, named so
// that component placement homes path s on shard s (Theorem 5.3: each
// connected component lives whole on one shard). Path s sorts
// (clusterShards-1-s)-th, so the gather concatenates the shard answers
// in reverse sorted order on every seed and its merge always does the
// same sorting work.
func clusterInstance(seed int64) (*fact.Instance, error) {
	rng := newRand(seed, "cluster-probe")
	in := fact.NewInstance()
	for s := 0; s < clusterShards; s++ {
		placed := false
		for try := 0; try < 64*clusterShards && !placed; try++ {
			p := path(rng, namespace(rng, clusterShards-1-s), clusterLen)
			seg := fact.NewInstance()
			addPath(seg, p)
			for _, home := range cluster.PlaceInstance(seg, clusterShards) {
				placed = home == s
				break
			}
			if placed {
				in.AddAll(seg)
			}
		}
		if !placed {
			return nil, fmt.Errorf("no seeded name places path %d on shard %d", s, s)
		}
	}
	return in, nil
}

// simTopoSeed is the topology seed of the k-th sim input.
func simTopoSeed(seed int64, k int) int64 {
	return newRand(seed, fmt.Sprintf("sim-topology-%d", k)).Int63()
}

// simInput draws the k-th sim input path.
func simInput(seed int64, k int) *fact.Instance {
	rng := newRand(seed, fmt.Sprintf("sim-input-%d", k))
	in := fact.NewInstance()
	addPath(in, path(rng, namespace(rng, k), simValues))
	return in
}

// writeLine is one single-fact write request.
func writeLine(op string, f fact.Fact) string {
	return fmt.Sprintf(`{"op":%q,"facts":[%q]}`, op, f.String())
}
