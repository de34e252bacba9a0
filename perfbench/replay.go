package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"semwebdb/internal/closure"
	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/match"
	"semwebdb/internal/ntriples"
	"semwebdb/internal/persist"
	"semwebdb/internal/query"
	"semwebdb/internal/term"
	"semwebdb/internal/turtle"
	"semwebdb/semweb/serve"
)

// span is one traced call into a layer package. Spans of one replayed
// operation share op, the index of that operation's root span.
type span struct {
	Name  string  `json:"name"`
	Op    int     `json:"op"`
	Phase string  `json:"phase"` // "setup" or "run"
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	// Side marks a call the replay makes beside semweb.DB's own
	// sequence (closure.ClWorkers next to query.PrepareWorkers, to
	// split saturation from the lean-core step); it is excluded when an
	// operation's replayed time is compared with the served one.
	Side  bool   `json:"side,omitempty"`
	Bytes uint64 `json:"alloc_bytes,omitempty"`
	Rows  int    `json:"rows,omitempty"` // rows a serve.encode call encoded
}

func (s span) dur() time.Duration { return time.Duration((s.End - s.Start) * 1e3) }

// tracer keeps every span in memory until the replay ends.
type tracer struct {
	origin time.Time
	phase  string
	op     int
	spans  []span
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1e3 }

func (t *tracer) allocated() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens the root span of a new operation and returns its end.
func (t *tracer) begin(kind string) func() {
	t.op = len(t.spans)
	t.spans = append(t.spans, span{Name: "op." + kind, Op: t.op, Phase: t.phase, Start: t.now()})
	i := t.op
	return func() { t.spans[i].End = t.now() }
}

// call records one layer call of the current operation.
func (t *tracer) call(name string, fn func() error) error {
	s := span{Name: name, Op: t.op, Phase: t.phase, Start: t.now()}
	err := fn()
	s.End = t.now()
	t.spans = append(t.spans, s)
	return err
}

// side is call for a call outside semweb.DB's own sequence.
func (t *tracer) side(name string, fn func() error) error {
	err := t.call(name, fn)
	t.spans[len(t.spans)-1].Side = true
	return err
}

// callAlloc is call that also records the bytes allocated by fn.
func (t *tracer) callAlloc(name string, fn func()) {
	a0 := t.allocated()
	_ = t.call(name, func() error { fn(); return nil })
	t.spans[len(t.spans)-1].Bytes = t.allocated() - a0
}

// prepState mirrors semweb's cached matching universe.
type prepState struct {
	data *graph.Graph
	ix   *match.Index
	m    *closure.Maintainer
}

// replayDB re-enacts semweb.DB's write and read paths by calling the
// layer packages directly, in the order semweb.DB calls them, one
// operation at a time. It is the single in-process client of the
// traced run.
type replayDB struct {
	ctx     context.Context
	t       *tracer
	dir     string
	eng     *persist.Engine
	d       *dict.Dict
	g       *graph.Graph
	st      *prepState // nil when no universe is cached
	stFor   *graph.Graph
	ground  bool
	pending []dict.Triple3
}

func openReplay(ctx context.Context, t *tracer, dir string) (*replayDB, error) {
	r := &replayDB{ctx: ctx, t: t, dir: dir}
	err := t.call("persist.open", func() error {
		var err error
		r.eng, r.d, r.g, err = persist.Open(dir, persist.Options{})
		return err
	})
	return r, err
}

// reopen closes the engine and recovers the directory, as a semwebd
// restart does; the cached universe is lost with the process.
func (r *replayDB) reopen() error {
	if err := r.eng.Close(); err != nil {
		return err
	}
	r.st, r.stFor, r.pending = nil, nil, nil
	return r.t.call("persist.open", func() error {
		var err error
		r.eng, r.d, r.g, err = persist.Open(r.dir, persist.Options{})
		return err
	})
}

func (r *replayDB) close() error { return r.eng.Close() }

// load is semweb.DB.LoadNTriples / LoadTurtle: parse, clone the
// snapshot, intern and add, log the fresh triples, publish, and note
// the insert against the cached universe.
func (r *replayDB) load(o op) (int, error) {
	var parsed *graph.Graph
	var err error
	if o.turtle {
		err = r.t.call("turtle.parse", func() error { parsed, err = turtle.Parse(o.body); return err })
	} else {
		err = r.t.call("ntriples.parse", func() error { parsed, err = ntriples.Parse(strings.NewReader(o.body)); return err })
	}
	if err != nil {
		return 0, err
	}
	var next *graph.Graph
	r.t.callAlloc("graph.clone", func() { next = r.g.Clone() })
	var fresh []dict.Triple3
	_ = r.t.call("dict.intern", func() error {
		parsed.Each(func(tr graph.Triple) bool {
			if enc := next.InternTriple(tr); next.AddID(enc) {
				fresh = append(fresh, enc)
			}
			return true
		})
		return nil
	})
	if len(fresh) == 0 {
		return 0, nil
	}
	if err := r.t.call("persist.append", func() error { return r.eng.Append(r.d, fresh) }); err != nil {
		return 0, err
	}
	r.g = next
	if r.st != nil {
		if r.ground && groundBatch(r.d, fresh) {
			r.pending = append(r.pending, fresh...)
		} else {
			r.st, r.stFor, r.pending = nil, nil, nil
		}
	}
	return len(fresh), nil
}

func groundBatch(d *dict.Dict, ts []dict.Triple3) bool {
	for _, t := range ts {
		for _, id := range t {
			if d.KindOf(id) == term.KindBlank {
				return false
			}
		}
	}
	return true
}

// snapshot is semweb.DB.Snapshot: checkpoint the current graph.
func (r *replayDB) snapshot() error {
	return r.t.call("persist.snapshot", func() error { return r.eng.Compact(r.g) })
}

// prepared is semweb.DB.preparedData: a cache hit, a delta extension
// of the cached universe by the pending inserts, or a full prepare.
func (r *replayDB) prepared() (*prepState, error) {
	if r.st != nil && r.stFor == r.g {
		return r.st, nil
	}
	if r.st != nil && len(r.pending) > 0 {
		st := r.st
		if st.m == nil {
			_ = r.t.call("closure.seed", func() error { st.m = closure.NewMaintainer(st.data); return nil })
		}
		to := st.data.Dict()
		ids := make([]dict.Triple3, len(r.pending))
		for i, t := range r.pending {
			ids[i] = dict.Triple3{to.Intern(r.d.TermOf(t[0])), to.Intern(r.d.TermOf(t[1])), to.Intern(r.d.TermOf(t[2]))}
		}
		var added []dict.Triple3
		err := r.t.call("closure.apply", func() error {
			var err error
			added, err = st.m.Apply(r.ctx, ids)
			return err
		})
		if err != nil {
			return nil, err
		}
		var nix *match.Index
		r.t.callAlloc("match.merge", func() { nix = st.ix.ExtendedByIDs(added) })
		r.st = &prepState{data: nix.Graph(), ix: nix, m: st.m}
		r.stFor, r.pending = r.g, nil
		return r.st, nil
	}
	view := func() *graph.Graph { return r.g.WithDict(r.g.Dict().Scratch()) }
	if err := r.t.side("closure.cl", func() error {
		_, err := closure.ClWorkers(r.ctx, view(), 1)
		return err
	}); err != nil {
		return nil, err
	}
	var data *graph.Graph
	if err := r.t.call("query.prepare", func() error {
		var err error
		data, err = query.PrepareWorkers(r.ctx, view(), false, 1)
		return err
	}); err != nil {
		return nil, err
	}
	var ix *match.Index
	_ = r.t.call("match.index", func() error {
		ix = match.NewIndex(data)
		for _, o := range []dict.Order{dict.SPO, dict.POS, dict.OSP} {
			data.Index(o)
		}
		return nil
	})
	_ = r.t.call("graph.is_ground", func() error { r.ground = r.g.IsGround(); return nil })
	r.st, r.stFor, r.pending = &prepState{data: data, ix: ix}, r.g, nil
	return r.st, nil
}

// query is semweb.DB.Stream behind semwebd's query handler: parse,
// resolve the matching universe, stream the single answers, and encode
// each as the handler's NDJSON row.
func (r *replayDB) query(o op) ([]query.Single, error) {
	var q *query.Query
	if err := r.t.call("query.parse", func() error {
		var err error
		q, err = query.ParseQuery(o.body)
		return err
	}); err != nil {
		return nil, err
	}
	st, err := r.prepared()
	if err != nil {
		return nil, err
	}
	solve := "match.solve"
	if o.kind == opScan {
		solve = "match.scan_solve"
	}
	var singles []query.Single
	if err := r.t.call(solve, func() error {
		_, err := query.StreamPreparedIndexCtx(r.ctx, q, st.ix, query.Options{Parallelism: 1}, func(s query.Single) bool {
			singles = append(singles, s)
			return true
		})
		return err
	}); err != nil {
		return nil, err
	}
	err = r.t.call("serve.encode", func() error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, s := range singles {
			msg := serve.RowMessage{Matching: s.Matching}
			msg.Triples = strings.Split(strings.TrimRight(ntriples.SerializeString(s.Graph), "\n"), "\n")
			if len(s.Binding) > 0 {
				msg.Bindings = make(map[string]string, len(s.Binding))
				for v, b := range s.Binding {
					msg.Bindings[v.Value] = b.String()
				}
			}
			if err := enc.Encode(msg); err != nil {
				return err
			}
		}
		return nil
	})
	r.t.spans[len(r.t.spans)-1].Rows = len(singles)
	return singles, err
}

// singleKeys renders singles the way the HTTP client keys rows.
func singleKeys(o op, singles []query.Single) []string {
	keys := make([]string, len(singles))
	vals := make([]string, len(o.vars))
	for i, s := range singles {
		for j, v := range o.vars {
			vals[j] = ""
			for bv, b := range s.Binding {
				if bv.Value == v {
					vals[j] = b.String()
				}
			}
		}
		keys[i] = strings.Join(vals, " ")
	}
	sort.Strings(keys)
	return keys
}

// served is one operation of the untraced run with the answer the
// server gave, in completion order.
type served struct {
	o     op
	added int
	keys  []string
}

// replay re-runs the setup (base load, snapshot, first query) and then
// the served operations in order, for at most budget of run-phase
// time. Every replayed answer must equal the served one. It returns
// the spans and the number of run-phase operations replayed.
func replay(ctx context.Context, dir string, setup []served, ops []served, reopen *served, budget time.Duration) (*tracer, int, error) {
	t := newTracer()
	t.phase = "setup"
	dbs := map[string]*replayDB{}
	defer func() {
		for _, r := range dbs {
			_ = r.close()
		}
	}()
	get := func(name string) (*replayDB, error) {
		if r, ok := dbs[name]; ok {
			return r, nil
		}
		end := t.begin("open")
		r, err := openReplay(ctx, t, filepath.Join(dir, name))
		end()
		if err != nil {
			return nil, fmt.Errorf("replay: open %s: %w", name, err)
		}
		dbs[name] = r
		return r, nil
	}
	one := func(s served) error {
		r, err := get(s.o.target())
		if err != nil {
			return err
		}
		end := t.begin(s.o.rootName())
		var singles []query.Single
		var added int
		if s.o.kind == opLoad {
			added, err = r.load(s.o)
		} else {
			singles, err = r.query(s.o)
		}
		end()
		if err != nil {
			return fmt.Errorf("replay %s: %w", s.o.kind, err)
		}
		if s.o.kind == opLoad {
			if added != s.added {
				return fmt.Errorf("replay load added %d triples, semwebd added %d", added, s.added)
			}
			return nil
		}
		if keys := singleKeys(s.o, singles); !slices.Equal(keys, s.keys) {
			return fmt.Errorf("replay %s answer (%d rows) differs from the served answer (%d rows)", s.o.kind, len(keys), len(s.keys))
		}
		return nil
	}
	for i, s := range setup {
		if err := one(s); err != nil {
			return nil, 0, err
		}
		if i == 0 {
			end := t.begin("snapshot")
			err := dbs[setupDB].snapshot()
			end()
			if err != nil {
				return nil, 0, err
			}
		}
	}
	t.phase = "run"
	n := 0
	start := time.Now()
	for _, s := range ops {
		if time.Since(start) >= budget {
			break
		}
		if err := one(s); err != nil {
			return nil, 0, err
		}
		n++
	}
	if reopen != nil {
		t.phase = "reopen"
		end := t.begin("reopen")
		err := dbs[setupDB].reopen()
		end()
		if err != nil {
			return nil, 0, err
		}
		if err := one(*reopen); err != nil {
			return nil, 0, err
		}
	}
	return t, n, nil
}

// checkCoverage fails when the layer calls of the replayed operations
// leave more than a twentieth of their wall time untraced: the replay
// then does work semweb.DB does not, and its layer numbers would
// mislead.
func checkCoverage(t *tracer) error {
	var wall, covered time.Duration
	for i, s := range t.spans {
		if s.Op != i {
			continue // a layer call, not a root
		}
		wall += s.dur()
	}
	for i, s := range t.spans {
		if s.Op == i {
			continue
		}
		root := t.spans[s.Op]
		if s.Start < root.Start || s.End > root.End {
			return fmt.Errorf("span %s lies outside its operation %s", s.Name, root.Name)
		}
		covered += s.dur()
	}
	if wall > 0 && float64(covered) < 0.95*float64(wall) {
		return fmt.Errorf("layer spans cover %.1f%% of the replayed wall time, want >= 95%%", 100*float64(covered)/float64(wall))
	}
	return nil
}
