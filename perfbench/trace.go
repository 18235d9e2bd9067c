package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The traced run. It measures each layer by timing the benchmark's
// own calls into that layer's public functions; nothing inside the
// program is instrumented. Every timed call is recorded as a span
// named after the per-layer metric it feeds; the calls of one probe
// iteration share a request id. Spans stay in memory and are written
// out as JSON lines when the run ends.

// span is one timed call.
type span struct {
	Name    string `json:"span"`
	Req     int64  `json:"req"`
	StartNs int64  `json:"start_ns"` // since the trace began
	DurNs   int64  `json:"dur_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// record appends one span.
func (t *tracer) record(name string, req int64, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Req: req, StartNs: int64(start.Sub(t.t0)), DurNs: int64(end.Sub(start))})
}

// timed runs f as one span and returns its duration.
func (t *tracer) timed(name string, req int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(name, req, start, end)
	return end.Sub(start)
}

// durations returns the durations of every span of one name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.DurNs))
		}
	}
	return ds
}

// medianUs is the median duration of the named spans in microseconds.
func (t *tracer) medianUs(name string) float64 { return median(t.durations(name)) / 1e3 }

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe collects one traced run's per-layer metrics and failed checks.
type probe struct {
	tr      *tracer
	metrics map[string]metric
	checks  int
	failed  int
	req     int64
}

func (p *probe) set(name string, v float64, unit string) { p.metrics[name] = metric{v, unit} }

// check counts one answer check.
func (p *probe) check(ok bool) {
	p.checks++
	if !ok {
		p.failed++
	}
}

// next starts a new probe iteration and returns its request id.
func (p *probe) next() int64 {
	p.req++
	return p.req
}

// traceRun is the traced run of one workload: the workload's own
// closed loop with and without client spans (the tracing overhead and
// the process counters), then every layer's probe.
func traceRun(out *bufio.Writer, w *workload, seed int64, window time.Duration, dir string) (result, error) {
	p := &probe{tr: newTracer(), metrics: map[string]metric{}}
	if err := traceOverhead(p, w, seed, window); err != nil {
		return result{}, err
	}
	for _, layer := range []func(*probe, int64) error{probeServe, probeChurn, probeDatalog, probeCluster, probeSim} {
		if err := layer(p, seed); err != nil {
			return result{}, err
		}
	}
	if dir == "" {
		exe, err := os.Executable()
		if err != nil {
			return result{}, err
		}
		dir = filepath.Dir(exe)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
	if err := p.tr.writeJSONL(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "%s trace: %d spans in %s\n", w.name, len(p.tr.spans), path)
	res := result{Correct: p.failed == 0, Attempted: p.checks, Failed: p.failed, Metrics: p.metrics}
	printMetrics(out, w.name, res, nil)
	return res, nil
}

// overheadSegments alternates untraced and traced windows, so a slow
// drift of the machine lands on both sides alike.
const overheadSegments = 4

// traceOverhead drives the workload's closed loop in alternating
// untraced and traced segments. Traced segments record one client span
// per op. The untraced segments also give the process counters.
func traceOverhead(p *probe, w *workload, seed int64, window time.Duration) error {
	b, err := build(w, seed)
	if err != nil {
		return err
	}
	defer b.d.stop()
	seg := window / overheadSegments
	spanNames := make([]string, len(w.classes))
	for c, name := range w.classes {
		spanNames[c] = w.name + "." + name
	}
	var plainOps, tracedOps int
	var plainT, tracedT time.Duration
	var mallocs, bytes, gcs uint64
	for i := 0; i < overheadSegments; i++ {
		traced := i%2 == 1
		var span spanFunc
		if traced {
			span = func(conn, class int, seq int64, start, end time.Time) {
				p.tr.record(spanNames[class], int64(conn)<<32|seq, start, end)
			}
		}
		lr, err := b.drive(w, seg, span)
		if err != nil {
			return err
		}
		p.checks += lr.ops
		p.failed += lr.failed
		if lr.firstErr != nil {
			return lr.firstErr
		}
		if traced {
			tracedOps += lr.ops
			tracedT += lr.elapsed
			continue
		}
		plainOps += lr.ops
		plainT += lr.elapsed
		mallocs += lr.mem.mallocs
		bytes += lr.mem.bytes
		gcs += lr.mem.gcs
	}
	plain := float64(plainOps) / plainT.Seconds()
	traced := float64(tracedOps) / tracedT.Seconds()
	p.set("trace.untraced_ops_per_s", plain, "1/s")
	p.set("trace.traced_ops_per_s", traced, "1/s")
	p.set("trace.overhead_pct", (plain/traced-1)*100, "%")
	p.set("process.allocs_per_op", float64(mallocs)/float64(plainOps), "count")
	p.set("process.alloc_bytes_per_op", float64(bytes)/float64(plainOps), "B")
	p.set("process.gc_cycles_per_kop", float64(gcs)*1000/float64(plainOps), "count")
	return nil
}
