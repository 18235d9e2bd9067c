// Command perfbench is the repository's benchmark. It runs one
// workload against calmd's serving core over TCP or against the netsim
// event engine for a fixed window, checks every answer, and prints
// every metric by name with its unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload serve-churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones: the median
// latency of the workload's headline op class, set-up time and live
// heap. Throughput and each op class's p50/p90/p99 are printed above
// the result line with their sample counts. With --trace 1 the run is
// traced instead: it times calls into each layer's public functions
// from this package and prints the per-layer metrics and the tracing
// overhead. --workload all runs every workload in turn.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	traceOut := flag.String("trace-out", "", "directory the traced run writes its spans to (default: next to the executable)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		fatalf("unknown workload %q (want %s or all)", *name, strings.Join(workloadNames(), ", "))
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "machine %s\n", machineLine())
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		window := time.Duration(*seconds) * time.Second
		var res result
		var err error
		if *trace == 1 {
			res, err = traceRun(out, w, *seed, window, *traceOut)
		} else {
			res, err = benchRun(out, w, *seed, window)
		}
		if err != nil {
			out.Flush()
			fatalf("%s: %v", w.name, err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(ws) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = m
		}
		out.Flush()
	}
	b, err := json.Marshal(total)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintf(out, "%s\n", b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// machineLine records what the numbers were measured on, so results
// from different machines are never read as one series.
func machineLine() string {
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	})
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// built is a workload's deployment after the set-up repetitions.
type built struct {
	d       *deployment
	setupS  float64 // median set-up seconds
	setups  int     // set-ups the median is over
	heapMB  float64
	stream  []op
	maxResp int
}

// build sets the workload up repeatedly (keeping the last deployment),
// reads the live heap after a forced GC, then builds the oracle data.
// It repeats set-up at least minSetupReps times and until the set-ups
// add up to setupBudget, at most maxSetupReps times, so a small set-up
// still gets a steady median.
func build(w *workload, seed int64) (*built, error) {
	var setups []float64
	var d *deployment
	var spent time.Duration
	for i := 0; i < maxSetupReps && (i < minSetupReps || spent < setupBudget); i++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = w.prepare(seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		spent += d.setup
	}
	// Two cycles: the first runs finalizers (closed sockets of earlier
	// set-ups), the second frees what they released.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b := &built{d: d, setupS: median(setups), setups: len(setups), heapMB: float64(ms.HeapAlloc) / (1 << 20)}
	var err error
	if b.stream, b.maxResp, err = d.oracle(); err != nil {
		d.stop()
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return b, nil
}

// drive runs the workload's timed window on a built deployment.
func (b *built) drive(w *workload, window time.Duration, span spanFunc) (loopResult, error) {
	if b.d.sim != nil {
		return simLoop(b.d.sim, window, span), nil
	}
	return closedLoop(b.d.addr, b.d.conns, len(w.classes), b.maxResp, b.d.warm, b.stream, window, span)
}

// benchRun is the end-to-end run.
func benchRun(out *bufio.Writer, w *workload, seed int64, window time.Duration) (result, error) {
	b, err := build(w, seed)
	if err != nil {
		return result{}, err
	}
	defer b.d.stop()
	lr, err := b.drive(w, window, nil)
	if err != nil {
		return result{}, err
	}
	if lr.firstErr != nil {
		fmt.Fprintf(out, "%s error: %v\n", w.name, lr.firstErr)
	}
	fmt.Fprintf(out, "%s seed=%d why: %s\n%s shape: %s\n", w.name, seed, w.why, w.name, w.shape)
	res := result{
		Correct:   lr.failed == 0 && lr.firstErr == nil && lr.ops > 0,
		Attempted: lr.ops,
		Failed:    lr.failed,
		Metrics:   map[string]metric{},
	}
	head := lr.samples[0]
	res.Metrics["p50_us"] = metric{us(quantile(head, 0.50)), "us"}
	res.Metrics["setup_s"] = metric{b.setupS, "s"}
	res.Metrics["live_heap_mb"] = metric{b.heapMB, "MB"}
	counts := map[string]int{"p50_us": len(head), "setup_s": b.setups, "live_heap_mb": 1}
	// Throughput and the tails are printed but not part of the result:
	// on a shared 2-CPU machine they move with the machine's load far
	// more than the medians do (see BENCHMARK.json's bounds).
	fmt.Fprintf(out, "%s ops_per_s %.4g 1/s n=%d\n", w.name, lr.opsPerSec(), lr.ops)
	// Every op class, by the names the per-layer metrics refer to,
	// each with its sample count.
	for c, name := range w.classes {
		s := lr.samples[c]
		for _, q := range []struct {
			tag string
			q   float64
		}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
			fmt.Fprintf(out, "%s %s_%s_us %.1f us n=%d\n", w.name, name, q.tag, us(quantile(s, q.q)), len(s))
		}
	}
	printMetrics(out, w.name, res, counts)
	return res, nil
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// printMetrics prints one line per metric, with its sample count
// where counts has one.
func printMetrics(out *bufio.Writer, wname string, res result, counts map[string]int) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := ""
		if c, ok := counts[k]; ok {
			n = fmt.Sprintf(" n=%d", c)
		}
		fmt.Fprintf(out, "%s %s %.4g %s%s\n", wname, k, res.Metrics[k].Value, res.Metrics[k].Unit, n)
	}
	fmt.Fprintf(out, "%s attempted=%d failed=%d correct=%v\n", wname, res.Attempted, res.Failed, res.Correct)
}
