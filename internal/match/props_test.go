package match

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/term"
)

// blankOrVar treats both blank nodes and query variables as unknowns.
func blankOrVar(x term.Term) bool { return x.IsBlank() || x.IsVar() }

// randomProblem draws a small data graph and a pattern set mixing
// present ground patterns, (likely) absent ground patterns and
// patterns with blank and variable unknowns. Pattern constants include
// a term ("zz") absent from the data.
func randomProblem(rng *rand.Rand) (*graph.Graph, []graph.Triple) {
	subj := []term.Term{iri("a"), iri("b"), iri("c"), blk("d0"), blk("d1")}
	pred := []term.Term{iri("p"), iri("q")}
	obj := append(append([]term.Term(nil), subj...), term.NewLiteral("l"))
	g := graph.New()
	for n := 4 + rng.Intn(9); g.Len() < n; {
		g.Add(graph.T(subj[rng.Intn(len(subj))], pred[rng.Intn(len(pred))], obj[rng.Intn(len(obj))]))
	}
	unknowns := []term.Term{v("X"), v("Y"), blk("u0"), blk("u1")}
	pick := func(consts []term.Term) term.Term {
		switch r := rng.Intn(10); {
		case r < 4:
			return unknowns[rng.Intn(len(unknowns))]
		case r == 4:
			return iri("zz")
		default:
			return consts[rng.Intn(len(consts))]
		}
	}
	ground := []term.Term{iri("a"), iri("b"), iri("c")}
	data := g.Triples()
	var pats []graph.Triple
	for n := 1 + rng.Intn(4); len(pats) < n; {
		switch rng.Intn(4) {
		case 0: // a present triple; ground unless it holds a data blank
			pats = append(pats, data[rng.Intn(len(data))])
		case 1: // ground, usually absent
			pats = append(pats, graph.T(ground[rng.Intn(3)], pred[rng.Intn(2)], ground[rng.Intn(3)]))
		default:
			pats = append(pats, graph.T(pick(subj), pick(pred), pick(obj)))
		}
	}
	return g, pats
}

// bruteForce enumerates every assignment of data-universe terms to the
// unknowns of pats and keeps those under which every pattern lands in
// data minus the hidden triples, honouring the injectivity and
// admissibility options. Solutions are rendered as sorted
// "unknown=value" strings.
func bruteForce(g *graph.Graph, pats []graph.Triple, injective bool, admissible func(u, val term.Term) bool, hidden map[graph.Triple]bool) []string {
	us := Unknowns(pats, blankOrVar)
	universe := g.UniverseList()
	var out []string
	assign := make(map[term.Term]term.Term)
	var rec func(i int)
	rec = func(i int) {
		if i < len(us) {
			for _, val := range universe {
				if admissible != nil && !admissible(us[i], val) {
					continue
				}
				clash := false
				if injective {
					for _, u := range us[:i] {
						clash = clash || assign[u] == val
					}
				}
				if clash {
					continue
				}
				assign[us[i]] = val
				rec(i + 1)
			}
			delete(assign, us[i])
			return
		}
		for _, p := range pats {
			inst := graph.Map(assign).ApplyTriple(p)
			if !g.Has(inst) || hidden[inst] {
				return
			}
		}
		out = append(out, render(assign))
	}
	rec(0)
	sort.Strings(out)
	return out
}

func render(m map[term.Term]term.Term) string {
	parts := make([]string, 0, len(m))
	for k, val := range m {
		parts = append(parts, k.String()+"="+val.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// TestSolveMatchesBruteForce checks Solve against exhaustive
// enumeration on random pattern sets, across every index mode, with and
// without reordering, injectivity, an admissibility filter, a scratch
// dictionary overlay and hidden data triples (Index.Hiding and
// Index.Without, stacked).
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	modes := []IndexMode{FullIndexes, PredicateOnly, ScanOnly}
	for iter := 0; iter < 400; iter++ {
		g, pats := randomProblem(rng)
		injective := rng.Intn(3) == 0
		overlay := rng.Intn(2) == 0
		var admissible func(u, val term.Term) bool
		if rng.Intn(3) == 0 {
			// Variables may not bind blanks; blank unknowns may not bind "c".
			admissible = func(u, val term.Term) bool {
				if u.IsVar() {
					return !val.IsBlank()
				}
				return val != iri("c")
			}
		}
		hidden := make(map[graph.Triple]bool)
		var hiddenList []graph.Triple
		if rng.Intn(3) == 0 {
			ts := g.Triples()
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if h := ts[rng.Intn(len(ts))]; !hidden[h] {
					hidden[h] = true
					hiddenList = append(hiddenList, h)
				}
			}
		}
		withoutFirst := rng.Intn(2) == 0
		want := bruteForce(g, pats, injective, admissible, hidden)
		for _, mode := range modes {
			for _, noReorder := range []bool{false, true} {
				d := g.Dict()
				opts := Options{IsUnknown: blankOrVar, Injective: injective, NoReorder: noReorder}
				if overlay {
					d = d.Scratch()
					opts.Dict = d
				}
				if admissible != nil {
					opts.Admissible = func(u, val dict.ID) bool { return admissible(d.TermOf(u), d.TermOf(val)) }
				}
				// The first hidden triple goes through Without, the
				// rest through Hiding, stacked in either order.
				ix := NewIndexMode(g, mode)
				var without []dict.Triple3
				rest := make(map[dict.Triple3]bool)
				for _, h := range hiddenList {
					if len(without) == 0 && withoutFirst {
						without = append(without, g.InternTriple(h))
					} else {
						rest[g.InternTriple(h)] = true
					}
				}
				hideRest := func(v *Index) *Index {
					if len(rest) == 0 {
						return v
					}
					return v.Hiding(func(t dict.Triple3) bool { return rest[t] })
				}
				if len(without) > 0 && noReorder {
					ix = hideRest(ix.Without(without[0]))
				} else if len(without) > 0 {
					ix = hideRest(ix).Without(without[0])
				} else {
					ix = hideRest(ix)
				}
				var got []string
				complete := NewSolver(ix, opts).Solve(pats, func(b Binding) bool {
					got = append(got, render(b.Terms(d)))
					return true
				})
				sort.Strings(got)
				if !complete || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("iter %d mode %d noReorder %v injective %v overlay %v hidden %v\ndata:\n%s\npatterns: %v\ngot  %v (complete %v)\nwant %v",
						iter, mode, noReorder, injective, overlay, hidden, g, pats, got, complete, want)
				}
			}
		}
	}
}

// TestAbsentGroundPatternIsCompleteFailure: a ground pattern missing
// from the data answers "no solution" as a complete search, whatever
// the budget, the mode or the rest of the pattern set.
func TestAbsentGroundPatternIsCompleteFailure(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.Add(graph.T(iri(fmt.Sprint("n", i)), iri("p"), iri(fmt.Sprint("n", (i+1)%10))))
	}
	pats := []graph.Triple{
		{S: v("X"), P: iri("p"), O: v("Y")},
		{S: v("Z"), P: iri("p"), O: v("W")},
		graph.T(iri("n0"), iri("p"), iri("n5")), // absent
	}
	for _, mode := range []IndexMode{FullIndexes, PredicateOnly, ScanOnly} {
		for _, noReorder := range []bool{false, true} {
			n := 0
			s := NewSolver(NewIndexMode(g, mode), Options{MaxSteps: 1, NoReorder: noReorder})
			complete := s.Solve(pats, func(Binding) bool { n++; return true })
			if n != 0 || !complete {
				t.Fatalf("mode %d noReorder %v: %d solutions, complete %v; want 0, true", mode, noReorder, n, complete)
			}
		}
	}
	// A triple hidden by a Hiding view is absent too, and stacked views
	// hide what either one hides.
	t01, t12 := graph.T(iri("n0"), iri("p"), iri("n1")), graph.T(iri("n1"), iri("p"), iri("n2"))
	e01, e12 := g.InternTriple(t01), g.InternTriple(t12)
	ix := NewIndex(g).Hiding(func(x dict.Triple3) bool { return x == e01 }).Hiding(func(x dict.Triple3) bool { return x == e12 })
	for _, tr := range []graph.Triple{t01, t12} {
		if _, found, complete := NewSolver(ix, Options{}).First([]graph.Triple{tr}); found || !complete {
			t.Fatalf("hidden triple %v matched: found %v complete %v", tr, found, complete)
		}
	}
}

// TestMaxStepsOnNonGroundPart: present ground patterns cost no budget,
// but the search over the patterns with unknowns still reports an
// exhausted budget as incomplete.
func TestMaxStepsOnNonGroundPart(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.Add(graph.T(iri(fmt.Sprint("n", i)), iri("p"), iri(fmt.Sprint("n", (i+1)%10))))
	}
	pats := []graph.Triple{
		graph.T(iri("n0"), iri("p"), iri("n1")), // present
		{S: v("X"), P: iri("p"), O: v("Y")},
		{S: v("Z"), P: iri("p"), O: v("W")},
	}
	n := 0
	complete := NewSolver(NewIndex(g), Options{MaxSteps: 5}).Solve(pats, func(Binding) bool { n++; return true })
	if complete {
		t.Fatalf("budget of 5 over 100 solutions reported complete (%d solutions)", n)
	}
	n = 0
	complete = NewSolver(NewIndex(g), Options{MaxSteps: 1000}).Solve(pats, func(Binding) bool { n++; return true })
	if !complete || n != 100 {
		t.Fatalf("ample budget: %d solutions, complete %v; want 100, true", n, complete)
	}
	// Only ground patterns, all present: one empty solution, no steps.
	n = 0
	complete = NewSolver(NewIndex(g), Options{MaxSteps: 1}).Solve(pats[:1], func(b Binding) bool {
		n++
		if len(b) != 0 {
			t.Fatalf("binding %v for a ground pattern set", b)
		}
		return true
	})
	if !complete || n != 1 {
		t.Fatalf("ground-only: %d solutions, complete %v; want 1, true", n, complete)
	}
}
