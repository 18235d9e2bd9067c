package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/incr"
	"repro/internal/netsim"
	"repro/internal/serve"
)

// Per-layer probes. Each builds seeded inputs for its layer and times
// the benchmark's calls into the layer's public functions; the churn
// and sim probes replay the serve-churn and sim workloads' inputs.
// Differences of medians split a call into the layer below and the
// part the layer above adds.

// Probe iteration counts, sized so each probe takes about a second.
const (
	serveIters   = 2000
	churnPasses  = 12
	fixpointReps = 15
	gatherIters  = 150
	simPasses    = 3
)

// probeServe times the read path of a core with a fixed epoch: Core.Do of
// query T, HandleLine of the same request line (Do plus decoding), and
// a TCP round trip (Do plus session, codec and socket).
func probeServe(p *probe, seed int64) error {
	base := readInstance(seed)
	d, err := startCore(base)
	if err != nil {
		return err
	}
	defer d.stop()
	want, err := oracleAnswer(base)
	if err != nil {
		return err
	}
	core := d.core
	cl, err := dial(d.addr, len(want))
	if err != nil {
		return err
	}
	defer cl.close()
	line := []byte(queryT)
	wire := []byte(queryT + "\n")
	core.Do(queryTReq) // fill the render cache
	for i := 0; i < serveIters; i++ {
		req := p.next()
		var resp serve.Response
		p.tr.timed("serve.read_do", req, func() { resp = core.Do(queryTReq) })
		p.check(encodesTo(resp, want))
		p.tr.timed("serve.handle_line", req, func() { resp = core.HandleLine(line) })
		p.check(encodesTo(resp, want))
		var got []byte
		var rerr error
		p.tr.timed("serve.round_trip", req, func() { got, rerr = cl.roundTrip(wire) })
		if rerr != nil {
			return rerr
		}
		p.check(bytes.Equal(got, want))
	}
	do := p.tr.medianUs("serve.read_do")
	p.set("serve.read_do_us", do, "us")
	p.set("serve.decode_us", p.tr.medianUs("serve.handle_line")-do, "us")
	p.set("serve.read_wire_us", p.tr.medianUs("serve.round_trip")-do, "us")
	return nil
}

func encodesTo(resp serve.Response, want []byte) bool {
	b, err := resp.Encode()
	return err == nil && bytes.Equal(b, want)
}

// probeChurn replays the serve-churn cycle twice over: through
// Core.Do on a serving core (writes, then the render-missing read),
// and through Apply on a materialization the probe owns, which splits
// a write into the incr apply and what the core adds (queueing, epoch
// publication).
func probeChurn(p *probe, seed int64) error {
	spec := churnInstance(seed)
	m, err := incr.New(tc, spec.base.Clone(), incr.Options{})
	if err != nil {
		return err
	}
	core := serve.NewCore(m, serve.Options{})
	defer core.Close()
	own, err := incr.New(tc, spec.base.Clone(), incr.Options{})
	if err != nil {
		return err
	}
	baseWant, err := oracleAnswer(spec.base)
	if err != nil {
		return err
	}
	wants := make([][]byte, len(spec.cycle))
	for k, e := range spec.cycle {
		st := spec.base.Clone()
		st.Remove(e)
		if wants[k], err = oracleAnswer(st); err != nil {
			return err
		}
	}
	state := own.Instance()
	var added, overdeleted, rederived, pairs int
	for pass := 0; pass < churnPasses; pass++ {
		for k, e := range spec.cycle {
			req := p.next()
			for _, w := range []struct {
				op, span string
				want     []byte
			}{{"retract", "serve.retract_do", wants[k]}, {"insert", "serve.insert_do", baseWant}} {
				var resp serve.Response
				p.tr.timed(w.span, req, func() { resp = core.Do(serve.Request{Op: w.op, Facts: []string{e.String()}}) })
				p.check(resp.OK)
				p.tr.timed("serve.render_miss", req, func() { resp = core.Do(queryTReq) })
				p.check(encodesTo(resp, w.want))
			}
			var ret, ins incr.ApplyStats
			var rerr, ierr error
			p.tr.timed("incr.retract_apply", req, func() { ret, rerr = own.Apply(incr.Delta{Retract: []fact.Fact{e}}) })
			p.tr.timed("incr.epoch", req, func() { own.Epoch() })
			p.tr.timed("incr.insert_apply", req, func() { ins, ierr = own.Apply(incr.Delta{Insert: []fact.Fact{e}}) })
			p.tr.timed("incr.epoch", req, func() { own.Epoch() })
			if ierr != nil || rerr != nil {
				return fmt.Errorf("churn apply: %v, %v", rerr, ierr)
			}
			added += ins.DerivedAdded
			overdeleted += ret.Overdeleted
			rederived += ret.Rederived
			pairs++
		}
		// The cycle returns the state to the base.
		p.check(own.Instance().Equal(state))
	}
	p.set("serve.insert_do_us", p.tr.medianUs("serve.insert_do"), "us")
	p.set("serve.retract_do_us", p.tr.medianUs("serve.retract_do"), "us")
	p.set("serve.render_miss_us", p.tr.medianUs("serve.render_miss"), "us")
	// Means add up where medians do not: the mean write through the
	// core minus the mean apply of the same delta is what the core adds.
	do := mean(p.tr.durations("serve.insert_do")) + mean(p.tr.durations("serve.retract_do"))
	apply := mean(p.tr.durations("incr.insert_apply")) + mean(p.tr.durations("incr.retract_apply"))
	p.set("serve.commit_overhead_us", (do-apply)/2/1e3, "us")
	p.set("incr.insert_apply_us", p.tr.medianUs("incr.insert_apply"), "us")
	p.set("incr.retract_apply_us", p.tr.medianUs("incr.retract_apply"), "us")
	p.set("incr.epoch_us", p.tr.medianUs("incr.epoch"), "us")
	p.set("incr.derived_added", float64(added)/float64(pairs), "count")
	p.set("incr.overdeleted", float64(overdeleted)/float64(pairs), "count")
	p.set("incr.rederived", float64(rederived)/float64(pairs), "count")
	frac := 0.0
	if overdeleted > 0 {
		frac = float64(rederived) / float64(overdeleted)
	}
	p.set("incr.rederive_frac", frac, "ratio")
	return nil
}

// probeDatalog times the from-scratch fixpoint of the serve probe's
// base, the evaluation that dominates a serving core's set-up.
func probeDatalog(p *probe, seed int64) error {
	base := readInstance(seed)
	var out *fact.Instance
	for i := 0; i < fixpointReps; i++ {
		var err error
		p.tr.timed("datalog.fixpoint", p.next(), func() { out, err = tc.Fixpoint(base, datalog.FixpointOptions{}) })
		if err != nil {
			return err
		}
	}
	m, err := incr.New(tc, base.Clone(), incr.Options{})
	if err != nil {
		return err
	}
	p.check(out.Equal(m.Instance()))
	p.set("datalog.fixpoint_ms", p.tr.medianUs("datalog.fixpoint")/1e3, "ms")
	p.set("datalog.facts_derived", float64(out.Len()-base.Len()), "count")
	return nil
}

// probeCluster times a component-placed cluster's gather (Cluster.Read over
// every shard), each shard's own Core.Do of the same query, and the
// TCP round trip through the router.
func probeCluster(p *probe, seed int64) error {
	base, err := clusterInstance(seed)
	if err != nil {
		return err
	}
	c, err := cluster.New(tc, base.Clone(), cluster.Options{Shards: clusterShards, Placement: cluster.PlaceComponent})
	if err != nil {
		return err
	}
	defer c.Close()
	srv, err := serve.NewTCPServerFor(cluster.NewRouter(c), "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	srv.Start()
	defer srv.Close()
	want, err := oracleAnswer(base)
	if err != nil {
		return err
	}
	cl, err := dial(srv.Addr(), len(want))
	if err != nil {
		return err
	}
	defer cl.close()
	wire := []byte(queryT + "\n")
	var slowest []float64
	for i := 0; i < gatherIters; i++ {
		req := p.next()
		var resp serve.Response
		p.tr.timed("cluster.gather", req, func() { resp = c.Read(-1, queryTReq, 0) })
		p.check(encodesTo(resp, want))
		var worst time.Duration
		for j := 0; j < c.ShardCount(); j++ {
			core := c.ShardCore(j)
			if d := p.tr.timed("cluster.shard_read", req, func() { resp = core.Do(queryTReq) }); d > worst {
				worst = d
			}
			p.check(resp.OK)
		}
		slowest = append(slowest, float64(worst))
		var got []byte
		var rerr error
		p.tr.timed("cluster.round_trip", req, func() { got, rerr = cl.roundTrip(wire) })
		if rerr != nil {
			return rerr
		}
		p.check(bytes.Equal(got, want))
	}
	gather := p.tr.medianUs("cluster.gather")
	shard := median(slowest) / 1e3
	p.set("cluster.gather_us", gather, "us")
	p.set("cluster.shard_read_us", shard, "us")
	p.set("cluster.merge_us", gather-shard, "us")
	p.set("cluster.router_wire_us", p.tr.medianUs("cluster.round_trip")-gather, "us")
	var n int
	if resp := c.Read(-1, queryTReq, 0); resp.Count != nil {
		n = *resp.Count
	}
	p.set("cluster.answer_facts", float64(n), "count")
	return nil
}

// probeSim times the sim workload's topology generation, netsim.New
// and the run to quiescence separately, and reads the engine's
// counters per run.
func probeSim(p *probe, seed int64) error {
	d, err := prepareSim(seed)
	if err != nil {
		return err
	}
	if _, _, err := d.oracle(); err != nil {
		return err
	}
	sd := d.sim
	var events, schedOps, heapMax, transitions, heartbeats, sent, runs int
	var runTime time.Duration
	for pass := 0; pass < simPasses; pass++ {
		for k := 0; k < simTopos; k++ {
			req := p.next()
			var terr error
			p.tr.timed("generate.topology", req, func() {
				_, terr = generate.NewTopology(generate.TopoPowerLaw, simNodes, simTopoSeed(seed, k))
			})
			if terr != nil {
				return terr
			}
			var s *netsim.Sim
			p.tr.timed("netsim.new", req, func() { s, terr = sd.newSim(k) })
			if terr != nil {
				return terr
			}
			var out *fact.Instance
			runTime += p.tr.timed("netsim.run", req, func() { out, terr = s.Run() })
			if terr != nil {
				return terr
			}
			p.check(out.Equal(sd.wants[k]) && s.Conserved())
			met := s.RunMetrics()
			events += s.Events()
			schedOps += s.SchedOps()
			heapMax += s.HeapMax()
			transitions += met.Transitions
			heartbeats += met.Heartbeats
			sent += met.MessagesSent
			runs++
		}
	}
	per := func(n int) float64 { return float64(n) / float64(runs) }
	p.set("generate.topology_ms", p.tr.medianUs("generate.topology")/1e3, "ms")
	p.set("netsim.new_ms", p.tr.medianUs("netsim.new")/1e3, "ms")
	p.set("netsim.events", per(events), "count")
	p.set("netsim.sched_ops", per(schedOps), "count")
	p.set("netsim.heap_max", per(heapMax), "count")
	p.set("transducer.transitions", per(transitions), "count")
	p.set("transducer.heartbeats", per(heartbeats), "count")
	p.set("transducer.messages_sent", per(sent), "count")
	p.set("netsim.us_per_transition", float64(runTime.Microseconds())/float64(transitions), "us")
	return nil
}
