package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"semwebdb/internal/closure"
	"semwebdb/internal/gen"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/term"
)

// everyMap calls fn with every map from the blanks of g into the
// universe of g — all candidates for μ(G) ⊆ G, since the image of a
// blank of a triple of G must be a term of G — until fn returns false.
func everyMap(g *graph.Graph, fn func(graph.Map) bool) {
	blanks := g.BlankNodeList()
	universe := g.UniverseList()
	mu := make(graph.Map, len(blanks))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(blanks) {
			return fn(mu)
		}
		for _, x := range universe {
			mu[blanks[i]] = x
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// leanByDefinition is Definition 3.7 verbatim: G is lean iff no map μ
// has μ(G) ⊊ G.
func leanByDefinition(g *graph.Graph) bool {
	lean := true
	everyMap(g, func(mu graph.Map) bool {
		lean = !mu.Apply(g).ProperSubgraphOf(g)
		return lean
	})
	return lean
}

// smallestRetract is min |μ(G)| over the maps μ with μ(G) ⊆ G: the size
// of core(G), which is the smallest instance of G contained in G.
func smallestRetract(g *graph.Graph) int {
	best := g.Len()
	everyMap(g, func(mu graph.Map) bool {
		if img := mu.Apply(g); img.SubgraphOf(g) && img.Len() < best {
			best = img.Len()
		}
		return true
	})
	return best
}

// randomSmallGraph draws a graph with at most four blanks, mostly
// non-ground, over two predicates and three IRIs.
func randomSmallGraph(rng *rand.Rand) *graph.Graph {
	nodes := []term.Term{iri("a"), iri("b"), iri("c")}
	for i := rng.Intn(4); i >= 0; i-- {
		nodes = append(nodes, blk(fmt.Sprint("b", i)))
	}
	preds := []term.Term{iri("p"), iri("q")}
	g := graph.New()
	for n := 2 + rng.Intn(6); g.Len() < n; {
		g.Add(graph.T(nodes[rng.Intn(len(nodes))], preds[rng.Intn(2)], nodes[rng.Intn(len(nodes))]))
	}
	return g
}

// TestIsLeanMatchesDefinition37 compares IsLean with an enumeration of
// every map on small random graphs.
func TestIsLeanMatchesDefinition37(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	seen := map[bool]int{}
	for round := 0; round < 300; round++ {
		g := randomSmallGraph(rng)
		want := leanByDefinition(g)
		if got := IsLean(g); got != want {
			t.Fatalf("round %d: IsLean = %v, Definition 3.7 says %v\n%v", round, got, want, g)
		}
		seen[want]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("degenerate sample: %v", seen)
	}
}

// TestCoreMatchesTheorem310 checks Core on small random graphs: the
// result is lean (by Definition 3.7), contained in G, an instance of G
// through the returned witness, reachable from G by a map, and as small
// as any retract of G.
func TestCoreMatchesTheorem310(t *testing.T) {
	rng := rand.New(rand.NewSource(310))
	for round := 0; round < 300; round++ {
		g := randomSmallGraph(rng)
		c, mu := Core(g)
		switch {
		case !leanByDefinition(c):
			t.Fatalf("round %d: core not lean\nG:\n%v\ncore:\n%v", round, g, c)
		case !c.SubgraphOf(g):
			t.Fatalf("round %d: core ⊄ G\nG:\n%v\ncore:\n%v", round, g, c)
		case !mu.Apply(g).Equal(c):
			t.Fatalf("round %d: μ(G) ≠ core with μ = %v", round, mu)
		case !hom.ExistsMap(g, c):
			t.Fatalf("round %d: no map G → core(G)", round)
		case c.Len() != smallestRetract(g):
			t.Fatalf("round %d: |core| = %d, smallest retract has %d", round, c.Len(), smallestRetract(g))
		}
	}
}

// referenceCore is the retraction loop with one map search of all of G
// into a fresh copy of G∖{t} per non-ground t — no blank components, no
// shared index, no skipped components — kept as an oracle.
func referenceCore(g *graph.Graph) *graph.Graph {
	cur := g.Clone()
	for {
		var mu graph.Map
		for _, t := range cur.NonGroundTriples() {
			if m, ok := hom.FindMap(cur, cur.Without(t)); ok {
				mu = m
				break
			}
		}
		if mu == nil {
			return cur
		}
		cur = mu.Apply(cur)
	}
}

// TestNormalFormRedundantIndividual: one blank individual copying a
// ground edge over a perfbench-shaped base retracts away entirely, so
// nf(D) is the closure of the ground part.
func TestNormalFormRedundantIndividual(t *testing.T) {
	g := gen.Individuals(60, 300, 1, true, 5)
	if g.Len() != gen.SchemaTriples+300+1 || g.IsGround() {
		t.Fatalf("|D| = %d, ground %v", g.Len(), g.IsGround())
	}
	nf := NormalForm(g)
	if want := closure.Cl(g.GroundPart()); !nf.Equal(want) {
		t.Fatalf("nf(D) has %d triples (%d non-ground), want cl(ground part) with %d",
			nf.Len(), len(nf.NonGroundTriples()), want.Len())
	}
}

// TestNormalFormNonRedundantIndividuals: three individuals nothing
// absorbs keep all their triples, and the normal form equals the one
// the whole-graph reference search computes.
func TestNormalFormNonRedundantIndividuals(t *testing.T) {
	g := gen.Individuals(6, 12, 3, false, 5)
	cl := closure.Cl(g)
	nf := NormalForm(g)
	if !nf.Equal(cl) {
		t.Fatalf("nf(D) has %d triples, want all %d of cl(D)", nf.Len(), cl.Len())
	}
	if ref := referenceCore(cl); !nf.Equal(ref) {
		t.Fatalf("nf(D) has %d triples, the reference core %d", nf.Len(), ref.Len())
	}
	if blanks := len(nf.BlankNodes()); blanks != 3 {
		t.Fatalf("nf(D) keeps %d individuals, want 3", blanks)
	}
}

// TestCoreDoesNotAlias: Core returns a fresh graph even when nothing
// can be retracted; NormalForm's closure is private, so it may be
// returned as is.
func TestCoreDoesNotAlias(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.New(graph.T(iri("a"), iri("p"), iri("b"))),
		graph.New(graph.T(iri("a"), iri("p"), blk("X"))),
	} {
		c, _, err := CoreCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if c == g || !c.Equal(g) {
			t.Fatalf("Core of a lean graph: aliased %v, equal %v", c == g, c.Equal(g))
		}
		c.Add(graph.T(iri("z"), iri("p"), iri("z")))
		if g.Len() != 1 {
			t.Fatal("mutating the core changed the input")
		}
	}
}

// TestCoreCancelled: a cancelled context aborts the retraction search
// with its error.
func TestCoreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := closure.Cl(gen.Individuals(12, 40, 3, false, 5))
	if _, _, err := CoreCtx(ctx, g); err == nil {
		t.Fatal("CoreCtx under a cancelled context returned no error")
	}
	if _, err := IsLeanCtx(ctx, g); err == nil {
		t.Fatal("IsLeanCtx under a cancelled context returned no error")
	}
}
