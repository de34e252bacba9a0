// Command perfbench is semwebdb's end-to-end benchmark. It starts the
// real semwebd binary on a fresh directory, drives it over loopback
// HTTP with two client connections, checks every answer against an
// RDFS oracle of its own, and prints the workload's metrics. With
// -trace 1 it also replays the served operations in-process through
// the layer packages and reports per-layer metrics. See README.md.
//
// Usage (from the repository root, after perfbench/run.sh has built
// the binaries):
//
//	perfbench -semwebd BIN -workdir DIR -workload query|ingest|blank
//	          -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

var nan = math.NaN()

// Workload sizes. The ground base is BenchmarkAddThenQuery's shape at
// a fifth of its size (20,056 triples instead of 100,100), so that a
// run can set up five times within its time budget; the blank base is
// sized so one full re-preparation with one blank individual, lean-core
// step included, takes about a second on a 2-CPU container.
var (
	groundSpec = baseSpec{nodes: 4000, edges: 20000}
	blankSpec  = baseSpec{nodes: 60, edges: 300, blanks: 1}
)

const (
	setups         = 5    // set-ups per untraced run; setup_s is their median
	queryRate      = 20.0 // open-loop point queries per second on query
	scanRate       = 4.0  // open-loop scans per second on query
	blankPointRate = 0.5  // open-loop point queries per second on blank
	ingestBatch    = 10   // fresh triples per ingest load
	// ingestCPUCycles is the number of ingest cycles over which
	// cpu_ms_per_op is taken. Each cycle grows the graph, so the CPU
	// of a cycle grows with the cycles before it; a fixed count makes
	// the figure independent of how many cycles the window fits. It is
	// reached after about 5 s of a 15 s window on a 2-CPU container;
	// runs on a busy host completed 707 to 1,181 cycles in 15 s.
	ingestCPUCycles = 600
)

// workload describes one traffic mix.
type workload struct {
	name string
	spec baseSpec
	// read names the latency series serve.gap_point_ms is taken from.
	read string
	// slices is the number of equal request-count slices the window's
	// CPU span is cut into; cpu_ms_per_op is the median slice's CPU per
	// request (see recorder.cpuPerOp).
	slices int
	// open maps each open-loop stream's series to its rate per second.
	open   map[string]float64
	drive  func(r *run, deadline time.Time)
	reopen bool // restart semwebd at the end and time the cold start
	// fixedBase draws the base from seed 0 whatever the run's seed, for
	// a workload whose cost depends on the base's exact shape: the
	// lean-core step's search time varies several-fold between random
	// graphs of one size. The seed still drives every request.
	fixedBase bool
}

var workloads = map[string]*workload{
	"query": {name: "query", spec: groundSpec, read: "point", slices: 5,
		open: map[string]float64{"point": queryRate, "scan": scanRate}, drive: driveQuery},
	"ingest": {name: "ingest", spec: groundSpec, read: "probe", slices: 5, drive: driveIngest, reopen: true},
	// A blank run serves about 75 requests, a ~1 s probe in every five;
	// a slice of 15 then holds two or three probes, and its CPU per
	// request swings with that count, so blank takes the span's mean.
	"blank": {name: "blank", spec: blankSpec, read: "probe", slices: 1,
		open: map[string]float64{"point": blankPointRate}, drive: driveBlank, fixedBase: true},
}

// run is one benchmark run of one workload.
type run struct {
	wl      *workload
	seed    uint64
	secs    float64
	bin     string
	dir     string
	st      streams
	b       *base
	ext     [][]string
	srv     *server
	rec     *recorder
	setupOp []served // the base load and the first query, for the replay

	workdir string

	mu         sync.Mutex
	firstProbe op // the first acknowledged ingest probe, re-asked after the restart

	cycles atomic.Int64 // ingest cycles completed
}

func main() {
	wname := flag.String("workload", "", "workload: query, ingest or blank")
	seed := flag.Uint64("seed", 1, "input seed")
	secs := flag.Float64("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced replay")
	bin := flag.String("semwebd", "", "path of the semwebd binary")
	workdir := flag.String("workdir", "", "scratch directory for databases and traces")
	flag.Parse()
	wl, ok := workloads[*wname]
	if !ok || *bin == "" || *workdir == "" || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -semwebd BIN -workdir DIR -workload query|ingest|blank -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	r := &run{wl: wl, seed: *seed, secs: *secs, bin: *bin, workdir: *workdir, rec: newRecorder()}
	r.dir = filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid()))
	res, err := r.execute(*trace == 1)
	if rmErr := os.RemoveAll(r.dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(res.report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		os.Exit(1)
	}
	// A metric without samples is NaN, which JSON cannot carry: the run
	// then fails instead of printing a result.
	if err := out.Encode(res.result); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	report map[string]any
	result result
}

var errInvalid = errors.New("open-loop generator fell behind its schedule; run is invalid")

// execute sets up, drives the measured window and, when traced,
// replays it.
func (r *run) execute(traced bool) (*output, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	r.st = newStreams(r.seed)
	baseRng := r.st.base
	if r.wl.fixedBase {
		baseRng = newStreams(0).base
	}
	r.b = genBase(baseRng, r.wl.spec)
	if r.wl.name == "query" {
		r.ext = extent(r.b, r.wl.spec.nodes)
	}
	n := setups
	if traced {
		n = 1
	}
	defer func() {
		if r.srv != nil {
			_ = r.srv.stop()
		}
	}()
	var setupS, setupWall, setupRSS []float64
	first := typesQuery(r.b.m, nodeIRI(r.b.edges[r.st.setup.IntN(len(r.b.edges))][0]))
	for k := 0; k < n; k++ {
		if r.srv != nil {
			if err := r.srv.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up server: %w", err)
			}
		}
		d, cpu, err := r.setup(k, first)
		if err != nil {
			return nil, err
		}
		rss, err := r.srv.peakRSSMB()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, cpu)
		setupWall = append(setupWall, d.Seconds())
		setupRSS = append(setupRSS, rss)
	}
	srv := r.srv

	c := newConn()
	defer c.close()
	before, err := c.scrape(srv.base)
	if err != nil {
		return nil, err
	}
	c.close() // the window's two clients are the only connections
	if err := r.rec.startCPU(srv.cpuSeconds); err != nil {
		return nil, err
	}
	t0 := time.Now()
	r.wl.drive(r, t0.Add(time.Duration(r.secs*float64(time.Second))))
	window := time.Since(t0).Seconds()
	r.rec.stopCPU() // a no-op if the workload ended the span itself
	cpuPerOp, cpuSpan, err := r.rec.cpuPerOp(r.wl.slices)
	if err != nil {
		return nil, err
	}
	after, err := c.scrape(srv.base)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	disk, err := srv.diskBytes()
	if err != nil {
		return nil, err
	}

	var reopen *served
	reopenS := nan
	if r.wl.reopen {
		reopen, reopenS, err = r.restart(c)
		if err != nil {
			return nil, err
		}
	}

	rec := r.rec
	triples := r.b.triples
	for _, s := range rec.log {
		triples += s.added
	}
	lat := rec.lat
	report := map[string]any{}
	put := func(name string, v float64) {
		if !math.IsNaN(v) {
			report[name] = v
		}
	}
	put("setup_s", median(setupS))
	put("setup_wall_s", median(setupWall))
	put("cpu_ms_per_op", cpuPerOp)
	report["setup_s_samples"] = setupS
	report["setup_wall_s_samples"] = setupWall
	put("rss_mb", rss)
	put("setup_rss_mb", median(setupRSS))
	put("disk_bytes_per_triple", float64(disk)/float64(triples))
	put("error_frac", float64(rec.failed)/float64(max(rec.attempted, 1)))
	put("reopen_s", reopenS)
	for _, s := range []struct{ name, series string }{
		{"point", "point"}, {"scan", "scan"}, {"first_row", "first_row"}, {"load", "load"}, {"fresh", "probe"},
		{"cycle", "cycle"}, {"prime_load", "prime_load"}, {"prime_query", "prime_query"},
	} {
		xs := lat[s.series]
		if len(xs) == 0 {
			continue
		}
		put(s.name+"_p50_ms", quantile(xs, 0.5))
		if len(xs) >= 100 { // a p90 needs ten samples beyond it
			put(s.name+"_p90_ms", quantile(xs, 0.9))
		}
	}
	for _, path := range []string{"full", "delta", "cached"} {
		k := `semweb_query_seconds_count{path="` + path + `"}`
		report["queries_"+path] = after[k] - before[k]
	}
	if r.wl.name == "ingest" {
		put("loads_s", float64(len(lat["load"]))/window)
		report["acks_overcounted"] = rec.overcounted.Load()
	}
	if len(r.wl.open) > 0 {
		put("loadgen.late_p90_ms", r.lateP90())
	}
	counts := map[string]int{"cpu_span": cpuSpan}
	for k, v := range lat {
		counts[k] = len(v)
	}
	out := &output{
		report: map[string]any{"workload": r.wl.name, "seed": r.seed, "report": report, "samples": counts,
			"attempted": rec.attempted, "failed": rec.failed, "window_s": window},
		result: result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed},
	}
	if rec.firstErr != nil {
		out.report["first_error"] = rec.firstErr.Error()
	}
	if r.fellBehind() {
		// The schedule slipped by more than a period for over a tenth
		// of a stream's requests: the latencies measure the generator's
		// backlog, not the server, so none are reported.
		b, _ := json.Marshal(out.report)
		return nil, fmt.Errorf("%w: %s", errInvalid, b)
	}
	if !traced {
		out.result.Metrics = map[string]metric{
			"setup_s":       {median(setupS), "s"},
			"cpu_ms_per_op": {cpuPerOp, "ms"},
			"setup_rss_mb":  {median(setupRSS), "MiB"},
		}
		return out, nil
	}

	// The traced run: replay the served operations in-process.
	if err := r.srv.stop(); err != nil {
		return nil, err
	}
	// The replay re-runs the first half of the window's operations,
	// which bounds a traced run's length.
	budget := time.Duration(r.secs * float64(time.Second) / 2)
	t, replayed, err := replay(context.Background(), filepath.Join(r.dir, "replay"), r.setupOp, rec.log, reopen, budget)
	fidelity := err
	if err == nil {
		fidelity = checkCoverage(t)
	}
	if fidelity != nil {
		out.result.Correct = false
		out.report["replay_error"] = fidelity.Error()
	}
	if t == nil {
		t = newTracer()
	}
	if err := writeSpans(filepath.Join(r.workdir, "traces"), r, t); err != nil {
		return nil, err
	}
	out.report["replayed_ops"] = replayed
	out.result.Metrics = layerMetrics(r, t, before, after, triples-r.b.triples)
	return out, nil
}

// setup is one set-up: a fresh directory, semwebd started on it, the
// base loaded over HTTP and checkpointed, and the first query
// answered. It returns the wall time and semwebd's CPU seconds, which
// cover the same span because the process starts inside it; the CPU
// seconds are one setup_s sample.
func (r *run) setup(k int, first op) (time.Duration, float64, error) {
	t0 := time.Now()
	srv, err := startServer(r.bin, filepath.Join(r.dir, fmt.Sprintf("setup%d", k)))
	if err != nil {
		return 0, 0, err
	}
	r.srv = srv
	c := newConn()
	defer c.close()
	baseLoad := op{kind: opLoad, body: r.b.nt, added: r.b.triples}
	added, err := c.load(srv.base, baseLoad)
	if err != nil {
		return 0, 0, err
	}
	if added != r.b.triples {
		return 0, 0, fmt.Errorf("base load added %d triples, want %d", added, r.b.triples)
	}
	if err := c.snapshot(srv.base); err != nil {
		return 0, 0, err
	}
	a, err := c.query(srv.base, first)
	if err != nil {
		return 0, 0, err
	}
	if err := checkAnswer(first, a.keys); err != nil {
		return 0, 0, err
	}
	d := time.Since(t0)
	cpu, err := srv.cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	r.setupOp = []served{{o: baseLoad, added: added}, {o: first, keys: a.keys}}
	return d, cpu, nil
}

// restart stops semwebd with SIGINT and starts it again on the same
// directory, timing until the first acknowledged probe answers again.
func (r *run) restart(c *conn) (*served, float64, error) {
	probe := r.firstProbe
	if probe.body == "" {
		return nil, 0, errors.New("no acknowledged probe to re-ask after the restart")
	}
	c.close()
	t0 := time.Now()
	if err := r.srv.stop(); err != nil {
		return nil, 0, fmt.Errorf("stop before restart: %w", err)
	}
	srv, err := startServer(r.bin, r.srv.root)
	if err != nil {
		return nil, 0, err
	}
	r.srv = srv
	a, err := c.query(srv.base, probe)
	if err == nil {
		err = checkAnswer(probe, a.keys)
	}
	d := time.Since(t0).Seconds()
	if !r.rec.count(err) {
		return nil, 0, fmt.Errorf("probe after restart: %w", err)
	}
	return &served{o: probe, keys: a.keys}, d, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lateP90 is the worst open-loop stream's 90th-percentile lateness.
func (r *run) lateP90() float64 {
	worst := 0.0
	for s := range r.wl.open {
		worst = max(worst, quantile(r.rec.lat["late."+s], 0.9))
	}
	return worst
}

// fellBehind reports an open-loop stream whose 90th-percentile
// lateness exceeds its period.
func (r *run) fellBehind() bool {
	for s, rate := range r.wl.open {
		if quantile(r.rec.lat["late."+s], 0.9) > 1e3/rate {
			return true
		}
	}
	return false
}

// driveQuery: connection 1 sends point queries in an open loop at
// queryRate; connection 2 streams class scans in an open loop at
// scanRate.
func driveQuery(r *run, deadline time.Time) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		openLoop(c, r.srv.base, queryRate, deadline, r.rec, "point", func() op { return pointOp(r.st.a, r.b) })
	}()
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		openLoop(c, r.srv.base, scanRate, deadline, r.rec, "scan", func() op { return scanOp(r.st.b, r.ext) })
	}()
	wg.Wait()
}

// driveIngest: two closed-loop writers, each loading a fresh batch,
// waiting for the durable ack, then probing the new node's typings.
func driveIngest(r *run, deadline time.Time) {
	var wg sync.WaitGroup
	for id, rng := range []*rand.Rand{r.st.a, r.st.b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn()
			defer c.close()
			for i := 0; time.Now().Before(deadline); i++ {
				load, probe := ingestCycle(rng, r.b, r.wl.spec.nodes, ingestBatch, id, i)
				t0 := time.Now()
				if !doLoad(c, r.srv.base, load, r.rec, "load") {
					continue
				}
				if doQuery(c, r.srv.base, probe, r.rec, "probe", time.Now()) {
					r.rec.add("cycle", time.Since(t0))
					if r.cycles.Add(1) == ingestCPUCycles {
						r.rec.stopCPU()
					}
					r.mu.Lock()
					if r.firstProbe.body == "" {
						r.firstProbe = probe
					}
					r.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// driveBlank: connection 1 runs a closed loop of cycles, each on a
// fresh database: prime it with the base's ground part and one query
// (which warms its prepared cache), then load one blank individual in Turtle
// — the non-ground write that drops the cache — and probe, which pays
// full saturation plus the lean-core step. A fresh database per cycle
// keeps nf(D) at one blank individual, so every cycle does the same
// work. Connection 2 sends point queries in a slow open loop to the
// most recently primed database.
func driveBlank(r *run, deadline time.Time) {
	var current atomic.Pointer[string]
	first := setupDB
	current.Store(&first)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		for i := 0; time.Now().Before(deadline); i++ {
			db := fmt.Sprintf("c%d", i)
			if err := os.MkdirAll(filepath.Join(r.srv.root, db), 0o755); !r.rec.count(err) {
				return
			}
			prime := op{kind: opLoad, body: r.b.ground, added: r.b.triples - r.wl.spec.blanks, db: db, prime: true}
			if !doLoad(c, r.srv.base, prime, r.rec, "prime_load") {
				continue
			}
			warm := pointOp(r.st.a, r.b)
			warm.db = db
			if !doQuery(c, r.srv.base, warm, r.rec, "prime_query", time.Now()) {
				continue
			}
			current.Store(&db)
			load, probe := blankCycle(r.st.a, r.b, i, db)
			t0 := time.Now()
			if !doLoad(c, r.srv.base, load, r.rec, "load") {
				continue
			}
			if doQuery(c, r.srv.base, probe, r.rec, "probe", time.Now()) {
				r.rec.add("cycle", time.Since(t0))
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		openLoop(c, r.srv.base, blankPointRate, deadline, r.rec, "point", func() op {
			o := pointOp(r.st.b, r.b)
			o.db = *current.Load()
			return o
		})
	}()
	wg.Wait()
}

// writeSpans writes the replay's spans as JSON lines, one file per run.
func writeSpans(dir string, r *run, t *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", r.wl.name, r.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerMetrics computes the per-layer metrics from the replay's spans
// and the untraced run's /metrics deltas. A layer the workload does
// not exercise reports 0.
func layerMetrics(r *run, t *tracer, before, after map[string]float64, loadedTriples int) map[string]metric {
	byName := map[string][]span{}
	for i, s := range t.spans {
		if s.Op != i {
			byName[s.Name] = append(byName[s.Name], s)
		}
	}
	// pick prefers the run-phase spans of a layer and falls back to the
	// set-up (and reopen) ones, so a layer the window never calls still
	// reports its set-up cost.
	pick := func(name string) []span {
		var run, other []span
		for _, s := range byName[name] {
			if s.Phase == "run" {
				run = append(run, s)
			} else {
				other = append(other, s)
			}
		}
		if len(run) > 0 {
			return run
		}
		return other
	}
	med := func(name string, unit time.Duration) float64 {
		var xs []float64
		for _, s := range pick(name) {
			xs = append(xs, float64(s.dur())/float64(unit))
		}
		return zeroNaN(median(xs))
	}
	medMB := func(name string) float64 {
		var xs []float64
		for _, s := range pick(name) {
			xs = append(xs, float64(s.Bytes)/(1<<20))
		}
		return zeroNaN(median(xs))
	}
	// The full path's lean-core share: query.PrepareWorkers minus the
	// closure.ClWorkers call made beside it for the same snapshot.
	var nf []float64
	cl, prep := pick("closure.cl"), pick("query.prepare")
	for i := range prep {
		if i < len(cl) {
			nf = append(nf, (prep[i].dur() - cl[i].dur()).Seconds())
		}
	}
	// Encode cost per row: total encode time over the rows those
	// same calls encoded.
	var encTime time.Duration
	rows := 0
	for _, s := range pick("serve.encode") {
		encTime += s.dur()
		rows += s.Rows
	}
	encPerRow := 0.0
	if rows > 0 {
		encPerRow = float64(encTime.Microseconds()) / float64(rows)
	}
	// The serving gap: untraced median minus the replayed median of
	// the same operation kind, its side calls excluded.
	opTimes := map[string][]float64{}
	for i, s := range t.spans {
		if s.Op != i || s.Phase != "run" {
			continue
		}
		d := s.dur()
		for _, c := range t.spans[i+1:] {
			if c.Op != i {
				break
			}
			if c.Side {
				d -= c.dur()
			}
		}
		opTimes[s.Name] = append(opTimes[s.Name], ms(d))
	}
	gap := func(series, opName string) float64 {
		if len(r.rec.lat[series]) == 0 || len(opTimes[opName]) == 0 {
			return 0
		}
		return quantile(r.rec.lat[series], 0.5) - median(opTimes[opName])
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	loads := float64(len(r.rec.lat["load"]) + len(r.rec.lat["prime_load"]))
	derived := delta("semweb_closure_triples_derived_total")
	saturations := delta(`semweb_closure_saturations_total{mode="delta",engine="seq"}`) +
		delta(`semweb_closure_saturations_total{mode="full",engine="seq"}`)
	m := map[string]metric{
		"ntriples.parse_ms":            {med("ntriples.parse", time.Millisecond), "ms"},
		"turtle.parse_ms":              {med("turtle.parse", time.Millisecond), "ms"},
		"dict.intern_ms":               {med("dict.intern", time.Millisecond), "ms"},
		"dict.interns_per_triple":      {ratio(delta(`semweb_dict_interns_total{layer="base"}`), float64(loadedTriples)), "count"},
		"graph.clone_ms":               {med("graph.clone", time.Millisecond), "ms"},
		"graph.clone_mb":               {medMB("graph.clone"), "MiB"},
		"persist.append_ms":            {med("persist.append", time.Millisecond), "ms"},
		"persist.fsyncs_per_load":      {ratio(delta("semweb_wal_fsync_seconds_count"), loads), "count"},
		"persist.wal_bytes_per_triple": {ratio(delta("semweb_wal_append_bytes_total"), float64(loadedTriples)), "B"},
		"persist.snapshot_s":           {med("persist.snapshot", time.Second), "s"},
		"persist.open_s":               {med("persist.open", time.Second), "s"},
		"closure.delta_ms":             {med("closure.apply", time.Millisecond), "ms"},
		"closure.derived_per_batch":    {ratio(derived, saturations), "count"},
		"closure.firings_per_derived":  {ratio(delta("semweb_closure_rule_firings_total"), derived), "count"},
		"closure.full_s":               {med("closure.cl", time.Second), "s"},
		"core.nf_s":                    {zeroNaN(median(nf)), "s"},
		"match.merge_ms":               {med("match.merge", time.Millisecond), "ms"},
		"match.merge_mb":               {medMB("match.merge"), "MiB"},
		"match.index_s":                {med("match.index", time.Second), "s"},
		"match.solve_us":               {med("match.solve", time.Microsecond), "us"},
		"match.scan_solve_ms":          {med("match.scan_solve", time.Millisecond), "ms"},
		"query.parse_us":               {med("query.parse", time.Microsecond), "us"},
		"serve.encode_us_per_row":      {encPerRow, "us"},
		"serve.gap_point_ms":           {gap(r.wl.read, "op."+r.wl.read), "ms"},
		"serve.gap_load_ms":            {gap("load", "op.load"), "ms"},
		"loadgen.late_p90_ms":          {r.lateP90(), "ms"},
	}
	return m
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
