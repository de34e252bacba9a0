package main

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"semwebdb/internal/closure"
	"semwebdb/internal/graph"
	"semwebdb/internal/ntriples"
	"semwebdb/internal/turtle"
	"semwebdb/semweb"
)

// small is a scaled-down instance of the ground and blank workloads.
var small = baseSpec{nodes: 40, edges: 120, blanks: 2}

// naiveTypes returns, per subject, the classes cl(g) types it with,
// computed by the paper-definition closure oracle.
func naiveTypes(g *graph.Graph) map[string][]string {
	out := map[string][]string{}
	closure.NaiveRDFSCl(g).Each(func(t graph.Triple) bool {
		if "<"+t.P.Value+">" == rdfType {
			out[t.S.String()] = append(out[t.S.String()], t.O.String())
		}
		return true
	})
	for _, cs := range out {
		sort.Strings(cs)
	}
	return out
}

// TestOracleMatchesNaiveClosure cross-checks the generator's RDFS
// oracle against closure.NaiveRDFSCl on a scaled-down base plus a few
// ingest batches: every node's derived typings must agree.
func TestOracleMatchesNaiveClosure(t *testing.T) {
	st := newStreams(7)
	b := genBase(st.base, small)
	nt := b.nt
	m := b.m
	var fresh []string
	for i := 0; i < 3; i++ {
		load, _ := ingestCycle(st.a, b, small.nodes, ingestBatch, 0, i)
		nt += load.body
		fresh = append(fresh, freshNode(0, i))
		for _, line := range strings.Split(strings.TrimSpace(load.body), "\n") {
			f := strings.Fields(line)
			var p int
			for k := 0; k < numPreds; k++ {
				if f[1] == predIRI(k) {
					p = k
				}
			}
			m.add(f[0], p, f[2])
		}
	}
	g, err := ntriples.ParseString(nt)
	if err != nil {
		t.Fatal(err)
	}
	got := naiveTypes(g)
	subjects := fresh
	for i := 0; i < small.nodes; i++ {
		subjects = append(subjects, nodeIRI(i))
	}
	for _, s := range subjects {
		want := classKeys(m.types(s))
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got[s], want) {
			t.Errorf("%s: closure types %v, oracle %v", s, got[s], want)
		}
	}
}

// TestBlankProbeOracle checks the blank workload's probe answer and
// its no-new-typing premise against the naive closure: the loaded
// individual must type no ground node with a new class. The oracle's
// rows must be the answer over nf(D) and not over cl(D), where the
// individual is still there: a server that skipped the lean-core step
// would fail the check.
func TestBlankProbeOracle(t *testing.T) {
	st := newStreams(3)
	b := genBase(st.base, small)
	g, err := ntriples.ParseString(b.nt)
	if err != nil {
		t.Fatal(err)
	}
	before := naiveTypes(g)
	for i := 0; i < 4; i++ {
		load, probe := blankCycle(st.a, b, i, "")
		lg, err := turtle.Parse(load.body)
		if err != nil {
			t.Fatalf("blank load does not parse: %v\n%s", err, load.body)
		}
		if lg.Len() != load.added {
			t.Fatalf("blank load has %d triples, generator counts %d", lg.Len(), load.added)
		}
		g = graph.Union(g, lg)
		after := naiveTypes(g)
		for i := 0; i < small.nodes; i++ {
			n := nodeIRI(i)
			if !reflect.DeepEqual(before[n], after[n]) {
				t.Fatalf("blank load changed the typings of %s", n)
			}
		}
		db, err := semweb.Open()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddGraph(g); err != nil {
			t.Fatal(err)
		}
		q, err := semweb.ParseQuery(probe.body)
		if err != nil {
			t.Fatal(err)
		}
		if got := evalKeys(t, db, q, probe.vars); !reflect.DeepEqual(got, probe.rows) {
			t.Fatalf("probe over nf(D) = %v, oracle %v", got, probe.rows)
		}
		q.WithoutNormalForm()
		if got := evalKeys(t, db, q, probe.vars); reflect.DeepEqual(got, probe.rows) {
			t.Fatalf("probe over cl(D) = %v equals the oracle's rows: it cannot tell nf(D) from cl(D)", got)
		}
	}
}

// TestTemplatesMatchEngine evaluates every query template in-process
// and compares the answers with the oracle's rows, keyed the way the
// HTTP client keys them.
func TestTemplatesMatchEngine(t *testing.T) {
	st := newStreams(11)
	b := genBase(st.base, baseSpec{nodes: small.nodes, edges: small.edges})
	db, err := semweb.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadNTriples(strings.NewReader(b.nt)); err != nil {
		t.Fatal(err)
	}
	ext := extent(b, small.nodes)
	var ops []op
	for i := 0; i < 30; i++ {
		ops = append(ops, pointOp(st.a, b), scanOp(st.b, ext))
	}
	check := func(o op) {
		t.Helper()
		q, err := semweb.ParseQuery(o.body)
		if err != nil {
			t.Fatalf("%s: %v\n%s", o.kind, err, o.body)
		}
		if got := evalKeys(t, db, q, o.vars); !reflect.DeepEqual(got, o.rows) {
			t.Fatalf("%s query\n%s\nengine rows %v\noracle rows %v", o.kind, o.body, got, o.rows)
		}
	}
	for _, o := range ops {
		check(o)
	}
	// Ingest batches come last: they add range typings to base nodes,
	// which the base templates' answers do not include.
	for i := 0; i < 3; i++ {
		load, probe := ingestCycle(st.a, b, small.nodes, ingestBatch, 1, i)
		if err := db.LoadNTriples(strings.NewReader(load.body)); err != nil {
			t.Fatal(err)
		}
		check(probe)
	}
}

func evalKeys(t *testing.T, db *semweb.DB, q *semweb.Query, vars []string) []string {
	t.Helper()
	rows, err := db.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var keys []string
	for rows.Next() {
		vals := make([]string, len(vars))
		for v, term := range rows.Row().Bindings {
			for i, name := range vars {
				if v.Value == name {
					vals[i] = term.String()
				}
			}
		}
		keys = append(keys, strings.Join(vals, " "))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// TestGeneratorDeterministic checks that a seed fixes every request
// body byte for byte, and that another seed changes them.
func TestGeneratorDeterministic(t *testing.T) {
	bodies := func(seed uint64) string {
		st := newStreams(seed)
		b := genBase(st.base, small)
		bb := genBase(newStreams(seed).base, blankSpec)
		ext := extent(b, small.nodes)
		var sb strings.Builder
		sb.WriteString(b.nt)
		sb.WriteString(bb.nt)
		for i := 0; i < 20; i++ {
			sb.WriteString(pointOp(st.a, b).body)
			sb.WriteString(scanOp(st.b, ext).body)
			load, probe := ingestCycle(st.a, b, small.nodes, ingestBatch, 0, i)
			sb.WriteString(load.body + probe.body)
			load, probe = blankCycle(st.b, bb, i, "")
			sb.WriteString(load.body + probe.body)
		}
		return sb.String()
	}
	if a, b := bodies(5), bodies(5); a != b {
		t.Fatal("the same seed produced different request bodies")
	}
	if bodies(5) == bodies(6) {
		t.Fatal("different seeds produced identical request bodies")
	}
}
