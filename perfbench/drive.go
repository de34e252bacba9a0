package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorder collects the untraced run's latencies, its served-operation
// log and its failures. Clients call it concurrently.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // milliseconds, by series
	log       []served
	attempted int
	failed    int
	firstErr  error

	// Load overlap tracking for the ack check (see doLoad).
	loadsStarted, loadsInFlight, overcounted atomic.Int64

	// semwebd's CPU seconds after each request of the span
	// cpu_ms_per_op is taken over, while cpu is set (see startCPU).
	cpu    func() (float64, error)
	cpuAt  []cpuSample
	cpuErr error
}

// cpuSample is semwebd's CPU seconds when ops requests had been
// attempted.
type cpuSample struct {
	cpu float64
	ops int
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

func (r *recorder) add(series string, d time.Duration) {
	r.mu.Lock()
	r.lat[series] = append(r.lat[series], ms(d))
	r.mu.Unlock()
}

// count accounts one request: err is a transport error, a refusal or
// an answer the oracle rejects.
func (r *recorder) count(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.sampleCPULocked()
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	return err == nil
}

// startCPU opens the span cpu_ms_per_op is taken over: from now on,
// every request's completion samples semwebd's CPU time.
func (r *recorder) startCPU(cpu func() (float64, error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cpu = cpu
	r.sampleCPULocked()
	return r.cpuErr
}

// stopCPU closes the span. Later calls do nothing.
func (r *recorder) stopCPU() {
	r.mu.Lock()
	r.cpu = nil
	r.mu.Unlock()
}

func (r *recorder) sampleCPULocked() {
	if r.cpu == nil || r.cpuErr != nil {
		return
	}
	c, err := r.cpu()
	if err != nil {
		r.cpuErr = err
		return
	}
	r.cpuAt = append(r.cpuAt, cpuSample{c, r.attempted})
}

// cpuPerOp cuts the span into slices of equal request count and
// returns the median over the slices of semwebd's CPU milliseconds per
// request, with the number of requests in the span. The median of
// slices, not the span's mean, keeps a rare costly request (such as a
// full re-preparation) from swinging the figure, much as a latency
// median is kept from its tail. One slice is the span's mean.
func (r *recorder) cpuPerOp(slices int) (float64, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cpuErr != nil {
		return 0, 0, r.cpuErr
	}
	if len(r.cpuAt) < slices+1 {
		return nan, 0, nil
	}
	first, last := r.cpuAt[0], r.cpuAt[len(r.cpuAt)-1]
	total := last.ops - first.ops
	var per []float64
	j := 0
	for k := 1; k <= slices; k++ {
		from := r.cpuAt[j]
		for r.cpuAt[j].ops < first.ops+k*total/slices {
			j++
		}
		to := r.cpuAt[j]
		per = append(per, (to.cpu-from.cpu)*1e3/float64(to.ops-from.ops))
	}
	return median(per), total, nil
}

// done is count that also logs a successful request for the replay.
func (r *recorder) done(s served, err error) bool {
	if !r.count(err) {
		return false
	}
	r.mu.Lock()
	r.log = append(r.log, s)
	r.mu.Unlock()
	return true
}

// doLoad sends a load and checks its ack against the number of fresh
// triples the generator put in it. semwebd computes the ack's count as
// the change of |D| across the request, so a load that overlapped
// another one may count the other's triples too: such an ack must
// count at least its own, and the overcount is tallied, not failed.
func doLoad(c *conn, base string, o op, rec *recorder, series string) bool {
	started := rec.loadsStarted.Add(1)
	overlap := rec.loadsInFlight.Add(1) > 1
	t0 := time.Now()
	added, err := c.load(base, o)
	rec.add(series, time.Since(t0))
	overlap = overlap || rec.loadsStarted.Load() != started
	rec.loadsInFlight.Add(-1)
	switch {
	case err != nil:
	case added == o.added:
	case overlap && added > o.added:
		rec.overcounted.Add(1)
	default:
		err = fmt.Errorf("load added %d triples, want %d", added, o.added)
	}
	return rec.done(served{o: o, added: o.added}, err)
}

// doQuery sends a query timed from t0 (the due time in an open loop,
// the send time in a closed one) and checks the answer against the
// oracle.
func doQuery(c *conn, base string, o op, rec *recorder, series string, t0 time.Time) bool {
	a, err := c.query(base, o)
	rec.add(series, time.Since(t0))
	if o.kind == opScan {
		rec.add("first_row", a.firstRow)
	}
	if err == nil {
		err = checkAnswer(o, a.keys)
	}
	return rec.done(served{o: o, keys: a.keys}, err)
}

// openLoop sends next() at rate requests per second until deadline,
// timing each from its due time. On one connection a request due
// while the previous one is in flight goes out late; the lateness is
// recorded, and a run whose generator fell behind is invalid.
func openLoop(c *conn, base string, rate float64, deadline time.Time, rec *recorder, series string, next func() op) {
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		rec.add("late."+series, time.Since(due))
		doQuery(c, base, next(), rec, series, due)
	}
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the q-quantile of xs by linear interpolation (NaN when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// streams are the seeded random streams of one run: the base graph and
// each client draw from their own, so the same seed gives the same
// inputs however the clients interleave.
type streams struct{ base, setup, a, b *rand.Rand }

func newStreams(seed uint64) streams {
	r := func(k uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, k)) }
	return streams{base: r(1), setup: r(2), a: r(3), b: r(4)}
}
