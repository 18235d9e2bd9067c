package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/incr"
	"repro/internal/netsim"
	"repro/internal/queries"
	"repro/internal/serve"
	"repro/internal/transducer"
)

// A run builds its deployment several times and reports the median
// as setup_s; only the last build serves the timed window.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = time.Second
)

// workload is one benchmark workload.
type workload struct {
	name  string
	why   string
	shape string
	// classes names the op classes; classes[0] is the headline class
	// that p50_us covers.
	classes []string
	// setup builds one deployment and returns what the timed window
	// drives. Only the calls it times count towards setup_s.
	prepare func(seed int64) (*deployment, error)
}

// deployment is one built workload: what the timed window needs, how
// long the program's own set-up calls took, and how to stop it.
type deployment struct {
	setup time.Duration
	addr  string      // serving address; "" for sim
	core  *serve.Core // the serving core; nil for sim
	conns int
	stop  func()

	// oracle builds the op stream and its response checks. It runs
	// after live_heap_mb is read, so the benchmark's own data does not
	// count towards the program's heap.
	oracle func() (stream []op, maxResp int, err error)
	warm   int // untimed passes of the stream per connection

	sim *simDeployment
}

var workloads = []*workload{
	{
		name:    "serve-churn",
		why:     "retract/re-insert of ring edges, each followed by a read-your-write query T: DRed retracts and incr counting, every read a render-cache miss",
		shape:   "closed loop, 1 connection, 1 request in flight, retract, query T, insert, query T per cycle edge",
		classes: []string{"retract", "insert", "query"},
		prepare: prepareServeChurn,
	},
	{
		name:    "sim",
		why:     "gossip TC on the netsim event engine over seeded power-law topologies, run to quiescence: transitions, heap and routing",
		shape:   "one goroutine, one run at a time, netsim.New to quiescence",
		classes: []string{"run"},
		prepare: prepareSim,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var tc = datalog.MustParseProgram(tcProgram)

var queryTReq = serve.Request{Op: "query", Rel: "T"}

// oracleAnswer renders query T over an independent materialization of
// base: the bytes every served answer must equal.
func oracleAnswer(base *fact.Instance) ([]byte, error) {
	m, err := incr.New(tc, base.Clone(), incr.Options{})
	if err != nil {
		return nil, err
	}
	return serve.ReadResponse(m.Epoch(), queryTReq).Encode()
}

// startCore is the serve-churn set-up (and the serve probe's):
// materialize, wrap in a core, listen.
func startCore(base *fact.Instance) (*deployment, error) {
	in := base.Clone()
	runtime.GC()
	t0 := time.Now()
	m, err := incr.New(tc, in, incr.Options{})
	if err != nil {
		return nil, err
	}
	c := serve.NewCore(m, serve.Options{})
	srv, err := serve.NewTCPServer(c, "127.0.0.1:0", nil)
	if err != nil {
		c.Close()
		return nil, err
	}
	srv.Start()
	d := &deployment{setup: time.Since(t0), addr: srv.Addr(), core: c}
	d.stop = func() {
		srv.Close()
		c.Close()
	}
	return d, nil
}

// queryTEpoch is the read-your-write query: the response names the
// epoch that served it, so the check can tell it saw the write.
const queryTEpoch = `{"op":"query","rel":"T","epoch":true}`

func prepareServeChurn(seed int64) (*deployment, error) {
	spec := churnInstance(seed)
	d, err := startCore(spec.base)
	if err != nil {
		return nil, err
	}
	d.conns, d.warm = 1, 2
	d.oracle = func() ([]op, int, error) {
		// A read after a write must equal the oracle's answer for the
		// state the write left, served from the write's epoch.
		baseWant, err := oracleAnswer(spec.base)
		if err != nil {
			return nil, 0, err
		}
		var stream []op
		for _, e := range spec.cycle {
			st := spec.base.Clone()
			st.Remove(e)
			want, err := oracleAnswer(st)
			if err != nil {
				return nil, 0, err
			}
			stream = append(stream,
				op{class: 0, req: []byte(writeLine("retract", e) + "\n"), check: writeAck},
				op{class: 2, req: []byte(queryTEpoch + "\n"), check: readsOwnWrite(want[:len(want)-1])},
				op{class: 1, req: []byte(writeLine("insert", e) + "\n"), check: writeAck},
				op{class: 2, req: []byte(queryTEpoch + "\n"), check: readsOwnWrite(baseWant[:len(baseWant)-1])},
			)
		}
		return stream, len(baseWant) + 32, nil
	}
	return d, nil
}

// simDeployment is the sim set-up: seeded topologies, their networks
// and the gossip transducer, plus the inputs and oracle outputs.
type simDeployment struct {
	topos  []*generate.Topology
	nets   []transducer.Network
	pols   []transducer.Policy
	trans  *transducer.Transducer
	inputs []*fact.Instance
	wants  []*fact.Instance
}

func prepareSim(seed int64) (*deployment, error) {
	inputs := make([]*fact.Instance, simTopos)
	for k := range inputs {
		inputs[k] = simInput(seed, k)
	}
	runtime.GC()
	t0 := time.Now()
	sd := &simDeployment{inputs: inputs, trans: core.MustBuild(core.Gossip, queries.TC())}
	for k := 0; k < simTopos; k++ {
		topo, err := generate.NewTopology(generate.TopoPowerLaw, simNodes, simTopoSeed(seed, k))
		if err != nil {
			return nil, err
		}
		net := netsim.NetworkOf(topo)
		sd.topos = append(sd.topos, topo)
		sd.nets = append(sd.nets, net)
		sd.pols = append(sd.pols, transducer.HashPolicy(net))
	}
	d := &deployment{setup: time.Since(t0), sim: sd, stop: func() {}}
	d.oracle = func() ([]op, int, error) {
		for _, in := range sd.inputs {
			want, err := queries.TC().Eval(in)
			if err != nil {
				return nil, 0, err
			}
			sd.wants = append(sd.wants, want)
		}
		return nil, 0, nil
	}
	return d, nil
}

// newSim builds the k-th sim run (the first timed step of a run).
func (sd *simDeployment) newSim(k int) (*netsim.Sim, error) {
	return netsim.New(sd.nets[k], sd.trans, sd.pols[k], core.Gossip.RequiredModel(), sd.inputs[k],
		netsim.Options{Topo: sd.topos[k], Routing: netsim.RouteNeighbors, Seed: int64(k)})
}

// runOnce is one sim op: a run from netsim.New to quiescence, timed,
// then checked against native TC of its input and message
// conservation.
func (sd *simDeployment) runOnce(k int) (time.Duration, bool, error) {
	t := time.Now()
	s, err := sd.newSim(k)
	if err != nil {
		return 0, false, err
	}
	out, err := s.Run()
	d := time.Since(t)
	if err != nil {
		return d, false, err
	}
	return d, out.Equal(sd.wants[k]) && s.Conserved(), nil
}

// simLoop runs sim ops back to back for window after one untimed run
// of every input. It stops after a whole pass over the inputs, so each
// input is run equally often.
func simLoop(sd *simDeployment, window time.Duration, span spanFunc) loopResult {
	res := loopResult{samples: [][]int64{make([]int64, 0, 1<<16)}, perSlice: newSlices(window)}
	for k := range sd.inputs {
		if _, ok, err := sd.runOnce(k); err != nil || !ok {
			res.firstErr = fmt.Errorf("sim warm-up run %d: answer ok=%v, err=%v", k, ok, err)
			return res
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t0 := time.Now()
	deadline := t0.Add(window)
	for k := 0; k%simTopos != 0 || time.Now().Before(deadline); k++ {
		t := time.Now()
		d, ok, err := sd.runOnce(k % simTopos)
		res.samples[0] = append(res.samples[0], int64(d))
		countAt(res.perSlice, time.Since(t0))
		if span != nil {
			span(0, 0, int64(k+1), t, t.Add(d))
		}
		res.ops++
		if !ok {
			res.failed++
			if err != nil && res.firstErr == nil {
				res.firstErr = err
			}
		}
	}
	res.elapsed = time.Since(t0)
	res.mem = memSince(&mem)
	sortSamples(res.samples[0])
	return res
}
