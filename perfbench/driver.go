package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"
)

// op is one request of a closed-loop stream and the check its
// response must pass.
type op struct {
	class int    // index into the workload's class names
	req   []byte // request line, newline included
	check func(resp []byte, st *connState) bool
}

// connState is what response checks may carry from op to op on one
// connection: the sequence number of its last write.
type connState struct{ seq int }

// exact accepts exactly want.
func exact(want []byte) func([]byte, *connState) bool {
	return func(resp []byte, _ *connState) bool { return bytes.Equal(resp, want) }
}

var okSeq = []byte(`{"ok":true,"seq":`)

// writeAck accepts a successful write and remembers its sequence
// number, which must follow the previous write's.
func writeAck(resp []byte, st *connState) bool {
	if !bytes.HasPrefix(resp, okSeq) {
		return false
	}
	seq, ok := leadingInt(resp[len(okSeq):])
	if !ok || (st.seq != 0 && seq != st.seq+1) {
		return false
	}
	st.seq = seq
	return true
}

var epochKey = []byte(`,"epoch":`)

// readsOwnWrite accepts the oracle answer served from the epoch of the
// connection's last write: body is the answer without its closing
// brace, and the response must end in "epoch":<last write seq>}.
func readsOwnWrite(body []byte) func([]byte, *connState) bool {
	return func(resp []byte, st *connState) bool {
		if !bytes.HasPrefix(resp, body) {
			return false
		}
		rest := resp[len(body):]
		if !bytes.HasPrefix(rest, epochKey) {
			return false
		}
		rest = rest[len(epochKey):]
		ep, ok := leadingInt(rest)
		return ok && ep == st.seq && len(rest) == digits(ep)+1 && rest[len(rest)-1] == '}'
	}
}

// leadingInt parses the decimal number at the start of b.
func leadingInt(b []byte) (int, bool) {
	n, i := 0, 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int(b[i]-'0')
	}
	return n, i > 0
}

// digits is the length of n's decimal form.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// client is one closed-loop connection: one request in flight, the
// request bytes prebuilt and the response read into a buffer sized to
// the largest answer, so a round trip allocates nothing.
type client struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string, maxResp int) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{c: c, r: bufio.NewReaderSize(c, maxResp+4096)}, nil
}

// roundTrip sends one request line and returns the response line
// without its newline. The slice is valid until the next call.
func (cl *client) roundTrip(req []byte) ([]byte, error) {
	if _, err := cl.c.Write(req); err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	line, err := cl.r.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	return line[:len(line)-1], nil
}

func (cl *client) close() { cl.c.Close() }

// loopResult is one closed-loop window: raw latency samples per op
// class, merged over connections, and the op counts.
type loopResult struct {
	samples [][]int64 // per class, nanoseconds
	// perSlice records the ops completed in each sliceLen slice of the
	// window, all connections together.
	perSlice []slice
	ops      int
	failed   int
	elapsed  time.Duration
	firstErr error
	// mem is the runtime's allocation and GC counters over the window.
	mem memDelta
}

// memDelta is the change of the runtime's counters over a window.
type memDelta struct{ mallocs, bytes, gcs uint64 }

// memSince returns the counters' change since before.
func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     uint64(after.NumGC - before.NumGC),
	}
}

// sliceLen is the throughput slice. Throughput is the median over the
// window's whole slices, so a stall of the machine that hits one slice
// does not move it.
const sliceLen = 500 * time.Millisecond

// slice is one throughput slice: how many ops completed in it, and
// when the first and the last of them did, as offsets into the window.
type slice struct {
	n           int
	first, last time.Duration
}

// newSlices returns the slices of a window.
func newSlices(window time.Duration) []slice { return make([]slice, window/sliceLen) }

// countAt records one op completed at offset into the window.
func countAt(slices []slice, offset time.Duration) {
	i := int(offset / sliceLen)
	if i >= len(slices) {
		return
	}
	s := &slices[i]
	if s.n == 0 || offset < s.first {
		s.first = offset
	}
	if offset > s.last {
		s.last = offset
	}
	s.n++
}

// mergeSlices adds another connection's slices into s.
func mergeSlices(s, o []slice) {
	for i := range s {
		if o[i].n == 0 {
			continue
		}
		if s[i].n == 0 || o[i].first < s[i].first {
			s[i].first = o[i].first
		}
		if o[i].last > s[i].last {
			s[i].last = o[i].last
		}
		s[i].n += o[i].n
	}
}

// opsPerSec is the median throughput over the window's slices, each
// measured between its first and last completion so that it is not
// rounded to whole ops per slice. A window shorter than three slices
// reports the plain mean.
func (r loopResult) opsPerSec() float64 {
	var rates []float64
	for _, s := range r.perSlice {
		if s.n > 1 && s.last > s.first {
			rates = append(rates, float64(s.n-1)/(s.last-s.first).Seconds())
		}
	}
	if len(rates) < 3 {
		return float64(r.ops) / r.elapsed.Seconds()
	}
	return median(rates)
}

// spanFunc receives one timed op of the traced run.
type spanFunc func(conn, class int, seq int64, start, end time.Time)

// closedLoop runs conns connections, each repeating stream with one
// request in flight. Each connection first sends warm full passes of
// the stream (untimed, so caches fill and the state is back at its
// start), then all connections start the timed window together and
// send until it closes. Each sample is stamped from the request write
// to the end of its response line. span, when non-nil, is called
// around every timed op (the traced run's client spans).
func closedLoop(addr string, conns, classes, maxResp, warm int, stream []op, window time.Duration, span spanFunc) (loopResult, error) {
	clients := make([]*client, conns)
	for i := range clients {
		cl, err := dial(addr, maxResp)
		if err != nil {
			for _, c := range clients[:i] {
				c.close()
			}
			return loopResult{}, err
		}
		clients[i] = cl
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	type connOut struct {
		samples [][]int64
		slices  []slice
		ops     int
		failed  int
		err     error
		end     time.Time
	}
	outs := make([]connOut, conns)
	// Preallocate generously so the timed window never grows a slice;
	// a faster build may still outgrow it, which only costs an append.
	prealloc := int(window/time.Microsecond)/(len(stream)*10) + 1024
	// start is closed once t0 is set; the close orders the write of t0
	// before every connection's read of it.
	start := make(chan struct{})
	var t0 time.Time
	var ready, done sync.WaitGroup
	for i := range clients {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			cl, out := clients[i], &outs[i]
			out.slices = newSlices(window)
			out.samples = make([][]int64, classes)
			for c := range out.samples {
				out.samples[c] = make([]int64, 0, prealloc*len(stream))
			}
			st := &connState{}
			for w := 0; w < warm*len(stream) && out.err == nil; w++ {
				o := &stream[w%len(stream)]
				resp, err := cl.roundTrip(o.req)
				if err != nil {
					out.err = err
				} else if !o.check(resp, st) {
					out.err = fmt.Errorf("warm-up: wrong answer to %s", bytes.TrimSpace(o.req))
				}
			}
			ready.Done()
			<-start
			if out.err != nil {
				return
			}
			deadline := t0.Add(window)
			var seq int64
			// Stop on a pass boundary, so every op of the stream is
			// sent equally often and a churn cycle is never cut.
			for k := 0; k%len(stream) != 0 || time.Now().Before(deadline); k++ {
				o := &stream[k%len(stream)]
				t := time.Now()
				resp, err := cl.roundTrip(o.req)
				end := time.Now()
				if err != nil {
					out.err = err
					out.failed++
					break
				}
				seq++
				out.ops++
				if !o.check(resp, st) {
					out.failed++
				}
				out.samples[o.class] = append(out.samples[o.class], int64(end.Sub(t)))
				countAt(out.slices, end.Sub(t0))
				if span != nil {
					span(i, o.class, seq, t, end)
				}
			}
			out.end = time.Now()
		}(i)
	}
	ready.Wait()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t0 = time.Now()
	close(start)
	done.Wait()

	res := loopResult{samples: make([][]int64, classes), perSlice: newSlices(window), mem: memSince(&mem)}
	var last time.Time
	for _, out := range outs {
		mergeSlices(res.perSlice, out.slices)
		if out.err != nil && res.firstErr == nil {
			res.firstErr = out.err
		}
		res.ops += out.ops
		res.failed += out.failed
		for c, s := range out.samples {
			res.samples[c] = append(res.samples[c], s...)
		}
		if out.end.After(last) {
			last = out.end
		}
	}
	res.elapsed = last.Sub(t0)
	for _, s := range res.samples {
		sortSamples(s)
	}
	return res, nil
}

func sortSamples(s []int64) { sort.Slice(s, func(a, b int) bool { return s[a] < s[b] }) }

// quantile is the exact nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted)) * q))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median of unsorted values (copied, not reordered).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
