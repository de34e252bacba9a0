package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
)

// Vocabulary of the generated data. The schema is the shape of the
// repository's BenchmarkAddThenQuery: four data predicates whose
// rdfs:domain and rdfs:range point into eight classes, all of which sit
// under one 41-class subClassOf chain, so every typed node inherits
// the whole chain and cl(D) is roughly ten times |D|.
const (
	rdfType        = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
	rdfsSubClassOf = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
	rdfsDomain     = "<http://www.w3.org/2000/01/rdf-schema#domain>"
	rdfsRange      = "<http://www.w3.org/2000/01/rdf-schema#range>"

	numPreds   = 4  // p0..p3
	chainStart = 8  // c0..c7 are domain/range targets, each a subclass of c8
	numClasses = 49 // c8 ⊑ c9 ⊑ … ⊑ c48
)

func nodeIRI(i int) string  { return fmt.Sprintf("<urn:pb:n:%d>", i) }
func predIRI(k int) string  { return fmt.Sprintf("<urn:pb:p:%d>", k) }
func classIRI(c int) string { return fmt.Sprintf("<urn:pb:c:%d>", c) }

// edge is one asserted data triple seen from one of its ends: the
// predicate index and the term at the other end.
type edge struct {
	pred  int
	other string
}

// model is the generator's own record of the asserted data triples.
// The oracle derives every expected answer from it by the RDFS rules
// (see types), never by asking the program under test.
type model struct {
	out map[string][]edge // subject -> (predicate, object)
	in  map[string][]edge // object -> (predicate, subject)
}

func newModel() *model {
	return &model{out: map[string][]edge{}, in: map[string][]edge{}}
}

func (m *model) add(s string, p int, o string) {
	m.out[s] = append(m.out[s], edge{p, o})
	m.in[o] = append(m.in[o], edge{p, s})
}

// schemaNT is the RDFS schema as N-Triples.
func schemaNT() string {
	var b strings.Builder
	for k := 0; k < numPreds; k++ {
		fmt.Fprintf(&b, "%s %s %s .\n", predIRI(k), rdfsDomain, classIRI(k))
		fmt.Fprintf(&b, "%s %s %s .\n", predIRI(k), rdfsRange, classIRI(k+numPreds))
	}
	for c := 0; c < chainStart; c++ {
		fmt.Fprintf(&b, "%s %s %s .\n", classIRI(c), rdfsSubClassOf, classIRI(chainStart))
	}
	for c := chainStart; c < numClasses-1; c++ {
		fmt.Fprintf(&b, "%s %s %s .\n", classIRI(c), rdfsSubClassOf, classIRI(c+1))
	}
	return b.String()
}

// schemaTriples is the number of triples schemaNT emits.
const schemaTriples = 2*numPreds + chainStart + (numClasses - 1 - chainStart)

// baseSpec sizes a base graph: nodes ground IRIs, edges random data
// triples among them, blanks blank-node individuals.
type baseSpec struct {
	nodes, edges, blanks int
}

// base is a generated base graph: its N-Triples body and the model.
type base struct {
	nt      string
	ground  string // nt without the blank individuals
	m       *model
	triples int
	edges   [][3]int // the ground data edges (s, p, o), for templates
}

// genBase draws the base graph of spec from rng. Data edges are
// distinct, so |D| is exactly schema + edges + blanks. The model leaves
// the blank individuals out: they change no answer of a ground query.
func genBase(rng *rand.Rand, spec baseSpec) *base {
	var b strings.Builder
	b.WriteString(schemaNT())
	bs := &base{m: newModel()}
	seen := map[[3]int]bool{}
	for len(bs.edges) < spec.edges {
		e := [3]int{rng.IntN(spec.nodes), rng.IntN(numPreds), rng.IntN(spec.nodes)}
		if seen[e] {
			continue
		}
		seen[e] = true
		bs.edges = append(bs.edges, e)
		s, o := nodeIRI(e[0]), nodeIRI(e[2])
		bs.m.add(s, e[1], o)
		fmt.Fprintf(&b, "%s %s %s .\n", s, predIRI(e[1]), o)
	}
	bs.ground = b.String()
	for i := 0; i < spec.blanks; i++ {
		// Each individual copies one ground edge (x p y), so the
		// lean-core step maps it onto x and it types no ground node anew.
		e := bs.edges[rng.IntN(len(bs.edges))]
		fmt.Fprintf(&b, "_:b%d %s %s .\n", i, predIRI(e[1]), nodeIRI(e[2]))
	}
	bs.nt = b.String()
	bs.triples = schemaTriples + spec.edges + spec.blanks
	return bs
}

// types returns the classes x is typed with in cl(D), by the RDFS
// rules: rdfs:domain types the subject of every edge, rdfs:range its
// object, and subClassOf inheritance adds the whole chain above any
// of c0..c7. Class indices come back sorted.
func (m *model) types(x string) []int {
	var own [chainStart]bool
	typed := false
	for _, e := range m.out[x] {
		own[e.pred] = true
		typed = true
	}
	for _, e := range m.in[x] {
		own[e.pred+numPreds] = true
		typed = true
	}
	if !typed {
		return nil
	}
	var cs []int
	for c, ok := range own {
		if ok {
			cs = append(cs, c)
		}
	}
	for c := chainStart; c < numClasses; c++ {
		cs = append(cs, c)
	}
	return cs
}

// opKind names one kind of request the workloads send.
type opKind int

const (
	opPoint opKind = iota // a seeded point query (open loop)
	opScan                // a query streaming a whole class extension
	opLoad                // an N-Triples or Turtle load
	opProbe               // the point query sent right after a load ack
)

func (k opKind) String() string {
	return [...]string{"point", "scan", "load", "probe"}[k]
}

// op is one generated request together with its expected answer.
type op struct {
	kind   opKind
	body   string
	turtle bool // a load whose body is Turtle
	// For loads: the number of triples the load must add. For queries:
	// the answer the oracle expects, as sorted row keys — each row's
	// bindings of vars, space-separated.
	added int
	vars  []string
	rows  []string
	db    string // target database; empty means setupDB
	// prime marks the blank workload's load of a fresh database's
	// ground base, so its replay is not taken for a one-triple load.
	prime bool
}

// rootName names the root span of the operation's replay.
func (o op) rootName() string {
	if o.prime {
		return "prime_load"
	}
	return o.kind.String()
}

func (o op) target() string {
	if o.db == "" {
		return setupDB
	}
	return o.db
}

func classKeys(cs []int) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = classIRI(c)
	}
	sort.Strings(out)
	return out
}

// typesQuery asks for the classes subj is typed with: present only in
// cl(D), since no rdf:type triple is asserted.
func typesQuery(m *model, subj string) op {
	return op{
		kind: opPoint,
		body: fmt.Sprintf("HEAD:\n?T <urn:pb:typeOf> %s .\nBODY:\n%s %s ?T .\n", subj, subj, rdfType),
		vars: []string{"T"},
		rows: classKeys(m.types(subj)),
	}
}

// joinQuery is a two-pattern join: the classes of the p-successors of
// subj.
func joinQuery(m *model, subj string, p int) op {
	var rows []string
	seen := map[string]bool{}
	for _, e := range m.out[subj] {
		if e.pred != p || seen[e.other] {
			continue
		}
		seen[e.other] = true
		for _, c := range m.types(e.other) {
			rows = append(rows, e.other+" "+classIRI(c))
		}
	}
	sort.Strings(rows)
	return op{
		kind: opPoint,
		body: fmt.Sprintf("HEAD:\n?Y <urn:pb:typedAs> ?T .\nBODY:\n%s %s ?Y .\n?Y %s ?T .\n", subj, predIRI(p), rdfType),
		vars: []string{"Y", "T"},
		rows: rows,
	}
}

// constructQuery has a blank-headed construct: every single answer
// mints a fresh Skolem blank for _:r, one per class of subj.
func constructQuery(m *model, subj string) op {
	return op{
		kind: opPoint,
		body: fmt.Sprintf("HEAD:\n_:r <urn:pb:about> %s .\n_:r <urn:pb:class> ?T .\nBODY:\n%s %s ?T .\n", subj, subj, rdfType),
		vars: []string{"T"},
		rows: classKeys(m.types(subj)),
	}
}

// pointOp draws one of the three point templates over the ground data
// edges of b.
func pointOp(rng *rand.Rand, b *base) op {
	e := b.edges[rng.IntN(len(b.edges))]
	switch rng.IntN(3) {
	case 0:
		return typesQuery(b.m, nodeIRI(e[2*rng.IntN(2)]))
	case 1:
		return joinQuery(b.m, nodeIRI(e[0]), e[1])
	default:
		return constructQuery(b.m, nodeIRI(e[0]))
	}
}

// extent lists, per class, the sorted ground nodes typed with it.
func extent(b *base, nodes int) [][]string {
	ext := make([][]string, numClasses)
	for i := 0; i < nodes; i++ {
		n := nodeIRI(i)
		for _, c := range b.m.types(n) {
			ext[c] = append(ext[c], n)
		}
	}
	for _, e := range ext {
		sort.Strings(e)
	}
	return ext
}

// scanOp streams the extension of a random class: every node for a
// chain class, a large share of them for c0..c7.
func scanOp(rng *rand.Rand, ext [][]string) op {
	c := rng.IntN(numClasses)
	return op{
		kind: opScan,
		body: fmt.Sprintf("HEAD:\n?X <urn:pb:in> %s .\nBODY:\n?X %s %s .\n", classIRI(c), rdfType, classIRI(c)),
		vars: []string{"X"},
		rows: ext[c],
	}
}

// freshNode names the node a load introduces: unique per client and
// cycle, so no other request touches it and its typings depend on its
// own batch alone — whatever the interleaving of concurrent writers.
func freshNode(client, cycle int) string {
	return fmt.Sprintf("<urn:pb:f:%d:%d>", client, cycle)
}

// ingestCycle is one ingest client cycle: a batch of size fresh data
// triples around one fresh node on the constrained predicates, and
// the probe that must return the node's derived typings.
func ingestCycle(rng *rand.Rand, b *base, nodes, size, client, cycle int) (op, op) {
	f := freshNode(client, cycle)
	bm := newModel()
	var body strings.Builder
	seen := map[[3]int]bool{}
	for len(seen) < size {
		e := [3]int{rng.IntN(2), rng.IntN(numPreds), rng.IntN(nodes)}
		if seen[e] {
			continue
		}
		seen[e] = true
		n := nodeIRI(e[2])
		if e[0] == 0 {
			bm.add(f, e[1], n)
			fmt.Fprintf(&body, "%s %s %s .\n", f, predIRI(e[1]), n)
		} else {
			bm.add(n, e[1], f)
			fmt.Fprintf(&body, "%s %s %s .\n", n, predIRI(e[1]), f)
		}
	}
	load := op{kind: opLoad, body: body.String(), added: size}
	probe := typesQuery(bm, f)
	probe.kind = opProbe
	return load, probe
}

// blankCycle is one blank-workload cycle: a Turtle load introducing
// one blank-node individual and a probe that joins on it. The
// individual copies one ground edge (x p y), so the write is non-ground
// — it drops the prepared cache — while the lean-core step maps the
// individual onto x: nf(D) and every ground answer stay fixed. The
// probe binds the subjects ?B of p-edges into y with their classes.
// In cl(D) the individual is one of them; in nf(D) it is not, so the
// oracle's rows, which hold the ground subjects alone, are the answer
// only if the lean-core step ran and removed it.
//
// The individual carries a label unique to the cycle rather than "[]":
// semwebd unions loads by blank-node label, and the Turtle parser names
// every document's first anonymous node _:anon1, so "[]" individuals of
// separate loads would all be one node.
func blankCycle(rng *rand.Rand, b *base, cycle int, db string) (op, op) {
	e := b.edges[rng.IntN(len(b.edges))]
	y := nodeIRI(e[2])
	body := fmt.Sprintf("@prefix p: <urn:pb:p:> .\n_:c%d p:%d %s .\n", cycle, e[1], y)
	var rows []string
	for _, in := range b.m.in[y] {
		if in.pred == e[1] {
			for _, c := range b.m.types(in.other) {
				rows = append(rows, in.other+" "+classIRI(c))
			}
		}
	}
	sort.Strings(rows)
	probe := fmt.Sprintf("HEAD:\n?B <urn:pb:typedAs> ?T .\nBODY:\n?B %s %s .\n?B %s ?T .\n", predIRI(e[1]), y, rdfType)
	return op{kind: opLoad, body: body, turtle: true, added: 1, db: db},
		op{kind: opProbe, body: probe, vars: []string{"B", "T"}, rows: rows, db: db}
}
