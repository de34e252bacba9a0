// Package core implements the minimal representations of Section 3.2 and
// the normal forms of Section 3.3 of the paper: leanness (Definition
// 3.7), the core of an RDF graph (Theorem 3.10), the normal form
// nf(G) = core(cl(G)) (Definition 3.18), and the unique minimal
// representation for the restricted graph class of Theorem 3.16.
//
// Cost model of the lean-core step. Deciding leanness is coNP-complete
// (Theorem 3.12), but the hardness lies in the blank nodes only. Ground
// triples are fixed points of every map: the retraction searches treat
// them as constant data, never as search patterns, and search one
// blank-connected component of the non-ground triples at a time, all
// against one index of the graph. nf(D) therefore costs the closure
// plus a search over the blank part of cl(D); for a ground D it costs
// the closure alone (no copy: NormalForm returns the closure itself
// when nothing can be retracted).
package core

import (
	"context"
	"fmt"

	"semwebdb/internal/canon"
	"semwebdb/internal/closure"
	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/match"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/reduction"
	"semwebdb/internal/term"
)

// IsLean reports whether G is lean (Definition 3.7): no map μ sends G to
// a proper subgraph of itself.
//
// The implementation uses the single-triple-deletion characterization:
// G is non-lean iff for some non-ground triple t ∈ G there is a map
// G → G∖{t}. (If μ(G) ⊊ G then some t ∈ G∖μ(G), and μ is a map into
// G∖{t}; conversely any such map has a proper image. Ground triples are
// fixed points of every map, so only non-ground t need be tried.) The
// problem is coNP-complete (Theorem 3.12), so exponential behaviour on
// adversarial inputs is expected — but only in the blank part of G: see
// retract for the cost model.
func IsLean(g *graph.Graph) bool {
	lean, _ := IsLeanCtx(context.Background(), g)
	return lean
}

// IsLeanCtx is IsLean under a context: the underlying map searches poll
// ctx and abort with its error when it is cancelled.
func IsLeanCtx(ctx context.Context, g *graph.Graph) (bool, error) {
	_, removed, err := retract(ctx, g, true)
	if err != nil {
		return false, err
	}
	return len(removed) == 0, nil
}

// component is one blank-connected component of non-ground triples
// (blanks are connected when they share a triple), in canonical triple
// order, decoded and encoded.
type component struct {
	triples []graph.Triple
	enc     []dict.Triple3
}

// retract computes core(G) as the set of triples to remove: it returns
// the composed retraction μ (on IDs) and the triples of G outside μ(G).
// When first is set it stops at the first proper retraction (a
// leanness test).
//
// Cost model: the work follows the blank part of G, not |G|.
//
//   - Ground triples are fixed points of every map, so they are never
//     search patterns; they only serve as the data blanks map into.
//   - The non-ground triples split into blank-connected components, and
//     each search moves one component's blanks with every other term
//     fixed (findProperRetraction). A component shown to have no proper
//     retraction stays so while G shrinks; a retracted component only
//     loses triples, and what survives may split. So a worklist of
//     components, each searched until it is lean, reaches the core.
//   - Every search runs on one index of G, through a view that hides
//     the triples removed so far (match.Index.Hiding) and the candidate
//     t (match.Index.Without): no copy of G and no re-sort, per
//     candidate t or per retraction.
//
// The whole step costs one index of G plus the backtracking searches
// over the components — exponential in a component at worst (Theorem
// 3.12), never quadratic in the ground triples.
func retract(ctx context.Context, g *graph.Graph, first bool) (map[dict.ID]dict.ID, map[dict.Triple3]struct{}, error) {
	ts := g.NonGroundTriples()
	if len(ts) == 0 {
		return nil, nil, nil
	}
	enc := make([]dict.Triple3, len(ts))
	for i, t := range ts {
		enc[i] = g.InternTriple(t)
	}
	d := g.Dict()
	work := blankComponents(d, ts, enc)
	cur := match.NewIndex(g)
	total := make(map[dict.ID]dict.ID)
	var removed map[dict.Triple3]struct{}
	for len(work) > 0 {
		c := work[0]
		work = work[1:]
		b, ok, err := findProperRetraction(ctx, cur, c)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue // lean for good: G only shrinks from here
		}
		if removed == nil {
			// From the first retraction on, the searches see G minus
			// what was removed.
			removed = make(map[dict.Triple3]struct{})
			cur = cur.Hiding(func(t dict.Triple3) bool {
				_, gone := removed[t]
				return gone
			})
		}
		// μ(c) ⊆ G∖removed, so μ(G) is G minus c's triples outside μ(c).
		images := make(map[dict.Triple3]struct{}, len(c.enc))
		for _, t := range c.enc {
			images[apply(b, t)] = struct{}{}
		}
		var keep component
		for i, t := range c.enc {
			if _, ok := images[t]; ok {
				keep.triples = append(keep.triples, c.triples[i])
				keep.enc = append(keep.enc, t)
			} else {
				removed[t] = struct{}{}
			}
		}
		for k, v := range total { // total := b ∘ total
			if w, ok := b[v]; ok {
				total[k] = w
			}
		}
		for k, v := range b {
			if _, ok := total[k]; !ok {
				total[k] = v
			}
		}
		if first {
			break
		}
		if len(keep.enc) > 0 {
			work = append(work, blankComponents(d, keep.triples, keep.enc)...)
		}
	}
	return total, removed, nil
}

// findProperRetraction returns a map μ that moves only the blanks of
// component c and sends the graph G that cur indexes to a proper
// subgraph of itself, if one exists. It searches, for each t ∈ c, a map
// of c into G∖{t}. That is complete: given μ with μ(G) ⊊ G and
// t ∉ μ(G), t is non-ground, in some component c, and the map that
// agrees with μ on c's blanks and is the identity elsewhere keeps G in
// G and drops t. Ground triples and the other components are in G∖{t}
// unchanged, so only c's triples are patterns, and one index serves
// every t through a view that hides t.
func findProperRetraction(ctx context.Context, cur *match.Index, c component) (match.Binding, bool, error) {
	for _, t := range c.enc {
		s := match.NewSolver(cur.Without(t), match.Options{IsUnknown: term.Term.IsBlank, Ctx: ctx})
		b, ok, _ := s.First(c.triples)
		if err := s.Err(); err != nil {
			return nil, false, err
		}
		if ok {
			return b, true, nil
		}
	}
	return nil, false, nil
}

// apply substitutes a binding into an encoded triple.
func apply(b match.Binding, t dict.Triple3) dict.Triple3 {
	for i, id := range t {
		if v, ok := b[id]; ok {
			t[i] = v
		}
	}
	return t
}

// blankComponents splits non-ground triples (ts, encoded as enc) into
// blank-connected components, in order of their first triple.
func blankComponents(d *dict.Dict, ts []graph.Triple, enc []dict.Triple3) []component {
	parent := make(map[dict.ID]dict.ID)
	find := func(x dict.ID) dict.ID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	roots := make([]dict.ID, len(enc))
	for i, t := range enc {
		var root dict.ID
		for _, id := range t {
			if d.KindOf(id) != term.KindBlank {
				continue
			}
			if _, seen := parent[id]; !seen {
				parent[id] = id
			}
			if r := find(id); root == dict.Wildcard {
				root = r
			} else if r != root {
				parent[r] = root
			}
		}
		roots[i] = root
	}
	// Number the components by first triple, then lay them out back to
	// back in two shared arrays, each in canonical order.
	at := make(map[dict.ID]int)
	comp := make([]int, len(enc))
	start := []int{0}
	for i := range enc {
		r := find(roots[i])
		j, ok := at[r]
		if !ok {
			j = len(start) - 1
			at[r] = j
			start = append(start, 0)
		}
		comp[i] = j
		start[j+1]++
	}
	for j := 1; j < len(start); j++ {
		start[j] += start[j-1]
	}
	allT := make([]graph.Triple, len(ts))
	allE := make([]dict.Triple3, len(enc))
	next := append([]int(nil), start...)
	for i, j := range comp {
		allT[next[j]], allE[next[j]] = ts[i], enc[i]
		next[j]++
	}
	out := make([]component, len(start)-1)
	for j := range out {
		out[j] = component{triples: allT[start[j]:start[j+1]], enc: allE[start[j]:start[j+1]]}
	}
	return out
}

// Core returns core(G): the unique (up to isomorphism) lean subgraph of G
// that is an instance of G (Theorem 3.10). The second return value is the
// composed retraction map μ with μ(G) = core(G). The result is a fresh
// graph sharing G's dictionary, never G itself.
//
// The algorithm retracts while a map μ with μ(G) ⊊ G exists, one
// blank-connected component at a time; each step removes at least one
// triple. Each map search is NP-complete in general (Theorem 3.12 makes
// this unavoidable), but only in the blank part of G (see retract).
func Core(g *graph.Graph) (*graph.Graph, graph.Map) {
	c, mu, _ := CoreCtx(context.Background(), g)
	return c, mu
}

// CoreCtx is Core under a context: each retraction's map search polls
// ctx and the computation aborts with its error when it is cancelled.
func CoreCtx(ctx context.Context, g *graph.Graph) (*graph.Graph, graph.Map, error) {
	c, mu, err := coreOf(ctx, g)
	if err != nil {
		return nil, nil, err
	}
	if c == g {
		c = g.Clone()
	}
	return c, mu, nil
}

// coreOf is Core without the copy: when g is already lean it returns g
// itself, so callers owning g (NormalFormCtx's private closure) pay
// nothing for a graph with nothing to retract.
func coreOf(ctx context.Context, g *graph.Graph) (*graph.Graph, graph.Map, error) {
	total, removed, err := retract(ctx, g, false)
	if err != nil {
		return nil, nil, err
	}
	d := g.Dict()
	mu := make(graph.Map, len(total))
	for k, v := range total {
		mu[d.TermOf(k)] = d.TermOf(v)
	}
	if len(removed) == 0 {
		return g, mu, nil
	}
	return mu.Apply(g), mu, nil
}

// CoreGraph is Core without the witness map.
func CoreGraph(g *graph.Graph) *graph.Graph {
	c, _ := Core(g)
	return c
}

// IsCoreOf reports whether h ≅ core(g). Deciding this is DP-complete
// (Theorem 3.12(2)).
func IsCoreOf(h, g *graph.Graph) bool {
	return hom.Isomorphic(h, CoreGraph(g))
}

// NormalForm returns nf(G) = core(cl(G)) (Definition 3.18). By Theorem
// 3.19 it is unique up to isomorphism and syntax independent:
// G ≡ H iff nf(G) ≅ nf(H).
func NormalForm(g *graph.Graph) *graph.Graph {
	nf, _ := NormalFormCtx(context.Background(), g)
	return nf
}

// NormalFormCtx is NormalForm under a context: both the closure
// saturation and the core retraction searches poll ctx and abort with
// its error when it is cancelled.
func NormalFormCtx(ctx context.Context, g *graph.Graph) (*graph.Graph, error) {
	cl, err := closure.ClCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	// The closure is private to this call: no copy when it is lean.
	nf, _, err := coreOf(ctx, cl)
	return nf, err
}

// SameNormalForm reports nf(G) ≅ nf(H), which by Theorem 3.19 decides
// G ≡ H. (Deciding whether a given graph is the normal form of another is
// DP-complete, Theorem 3.20.)
func SameNormalForm(g, h *graph.Graph) bool {
	return hom.Isomorphic(NormalForm(g), NormalForm(h))
}

// Fingerprint returns a total equivalence certificate for G: the
// canonical serialization of nf(G). By Theorem 3.19 and the correctness
// of canonical labeling, G ≡ H iff Fingerprint(G) == Fingerprint(H), so
// semantic equivalence of RDF databases reduces to string comparison.
func Fingerprint(g *graph.Graph) string {
	fp, _ := FingerprintCtx(context.Background(), g)
	return fp
}

// FingerprintCtx is Fingerprint under a context (see NormalFormCtx).
func FingerprintCtx(ctx context.Context, g *graph.Graph) (string, error) {
	nf, err := NormalFormCtx(ctx, g)
	if err != nil {
		return "", err
	}
	return canon.String(nf), nil
}

// ErrNotInRestrictedClass is returned by MinimalRepresentation when the
// graph falls outside the class of Theorem 3.16.
type ErrNotInRestrictedClass struct{ Reason string }

func (e *ErrNotInRestrictedClass) Error() string {
	return fmt.Sprintf("core: graph outside the Theorem 3.16 class: %s", e.Reason)
}

// CheckRestrictedClass verifies the preconditions of Theorem 3.16: no
// reserved vocabulary in subject or object position, and acyclicity of
// the sp and sc subgraphs (ignoring reflexive loops, which the theorem's
// proof treats separately).
func CheckRestrictedClass(g *graph.Graph) error {
	if rdfs.MentionsVocabularyOutsidePredicate(g) {
		return &ErrNotInRestrictedClass{Reason: "reserved vocabulary occurs in subject or object position"}
	}
	sc := subgraphDigraph(g, rdfs.SubClassOf).WithoutSelfLoops()
	if !sc.IsAcyclic() {
		return &ErrNotInRestrictedClass{Reason: "subclass subgraph has a cycle"}
	}
	sp := subgraphDigraph(g, rdfs.SubPropertyOf).WithoutSelfLoops()
	if !sp.IsAcyclic() {
		return &ErrNotInRestrictedClass{Reason: "subproperty subgraph has a cycle"}
	}
	return nil
}

// subgraphDigraph extracts the digraph of p-labelled triples of g.
func subgraphDigraph(g *graph.Graph, p term.Term) *reduction.Digraph {
	d := reduction.NewDigraph()
	for _, t := range g.WithPredicate(p) {
		d.AddEdge(t.S, t.O)
	}
	return d
}

// MinimalRepresentation computes the unique minimal representation of G
// (Definition 3.13, Theorem 3.16): the minimal (w.r.t. number of triples)
// graph equivalent to G and contained in G. The graph must belong to the
// restricted class; otherwise an error is returned (Examples 3.14 and
// 3.15 show uniqueness fails outside it).
//
// The construction follows the five-case analysis of the theorem's proof:
//
//  1. sc triples: keep exactly the transitive reduction of the sc DAG;
//  2. sp triples: likewise;
//  3. dom/range triples: always kept (nothing derives them here);
//  4. plain triples (a,b,c): dropped iff G holds a witness (a,d,c) with
//     d a strict sp-descendant of b (rule (3) re-derives the triple);
//  5. type triples (x,type,c): dropped iff re-derivable by rule (5) from
//     a retained lower type assertion or by rules (6)/(7) from dom/range;
//     reflexive (a,sc,a)/(a,sp,a) loops are dropped iff rules (8)–(13)
//     re-derive them.
func MinimalRepresentation(g *graph.Graph) (*graph.Graph, error) {
	if err := CheckRestrictedClass(g); err != nil {
		return nil, err
	}

	spDag := subgraphDigraph(g, rdfs.SubPropertyOf).WithoutSelfLoops()
	scDag := subgraphDigraph(g, rdfs.SubClassOf).WithoutSelfLoops()
	spRed := spDag.TransitiveReduction()
	scRed := scDag.TransitiveReduction()

	out := graph.New()
	m := &minimizer{g: g, spDag: spDag, scDag: scDag}

	// spReach reports d sp-reaches b through a path of length ≥ 1.
	spReach := func(d, b term.Term) bool { return spDag.Reaches(d, b) }
	scReach := func(d, b term.Term) bool { return scDag.Reaches(d, b) }

	// typeDerivableFromDomRange reports whether (x, type, c) follows from
	// rules (6)/(7) together with sc-lifting (rule (5)) from the dom and
	// range triples of G (which are all retained) and the plain triples
	// (whose sp-minimal witnesses are all retained).
	doms := g.WithPredicate(rdfs.Domain)
	ranges := g.WithPredicate(rdfs.Range)
	typeDerivableFromDomRange := func(x, c term.Term) bool {
		ok := false
		g.Each(func(t graph.Triple) bool {
			if rdfs.IsVocabulary(t.P) {
				return true
			}
			if t.S == x {
				for _, dm := range doms {
					if (t.P == dm.S || spReach(t.P, dm.S)) &&
						(dm.O == c || scReach(dm.O, c)) {
						ok = true
						return false
					}
				}
			}
			if t.O == x {
				for _, rg := range ranges {
					if (t.P == rg.S || spReach(t.P, rg.S)) &&
						(rg.O == c || scReach(rg.O, c)) {
						ok = true
						return false
					}
				}
			}
			return true
		})
		return ok
	}

	for _, t := range g.Triples() {
		switch t.P {
		case rdfs.SubClassOf:
			if t.S == t.O {
				// Reflexive loop: drop iff rules (12)/(13) re-derive it
				// from the rest of G.
				if !m.reflexiveScDerivable(t.S) {
					out.MustAdd(t)
				}
				continue
			}
			if scRed.HasEdge(t.S, t.O) {
				out.MustAdd(t)
			}
		case rdfs.SubPropertyOf:
			if t.S == t.O {
				if !m.reflexiveSpDerivable(t.S) {
					out.MustAdd(t)
				}
				continue
			}
			if spRed.HasEdge(t.S, t.O) {
				out.MustAdd(t)
			}
		case rdfs.Domain, rdfs.Range:
			out.MustAdd(t)
		case rdfs.Type:
			x, c := t.S, t.O
			// Derivable by rule (5) from a strictly lower asserted type?
			lower := false
			for _, u := range g.WithPredicate(rdfs.Type) {
				if u.S == x && u.O != c && scReach(u.O, c) {
					lower = true
					break
				}
			}
			if lower || typeDerivableFromDomRange(x, c) {
				continue
			}
			out.MustAdd(t)
		default:
			// Plain triple: redundant iff a strict sp-descendant witness
			// exists (rule (3)).
			redundant := false
			for _, u := range g.Triples() {
				if u.S == t.S && u.O == t.O && u.P != t.P &&
					!rdfs.IsVocabulary(u.P) && spReach(u.P, t.P) {
					redundant = true
					break
				}
			}
			if !redundant {
				out.MustAdd(t)
			}
		}
	}
	return out, nil
}

// minimizer holds the shared reachability state for the reflexive-loop
// case analysis of Theorem 3.16's proof.
type minimizer struct {
	g     *graph.Graph
	spDag *reduction.Digraph
	scDag *reduction.Digraph
}

// reflexiveSpDerivable reports whether (a, sp, a) follows by rules
// (8)–(11) from the triples of g other than the loop itself. Rule (8)
// applies to derived triples as well, so a is also "used as a predicate"
// when some base predicate sp-reaches a (rule (3) lifts the base triple
// to predicate a first).
func (m *minimizer) reflexiveSpDerivable(a term.Term) bool {
	if rdfs.IsVocabulary(a) { // rule (9)
		return true
	}
	found := false
	loop := graph.T(a, rdfs.SubPropertyOf, a)
	m.g.Each(func(t graph.Triple) bool {
		if t == loop {
			return true
		}
		if t.P == a { // rule (8)
			found = true
			return false
		}
		if !rdfs.IsVocabulary(t.P) && a.CanPredicate() && m.spDag.Reaches(t.P, a) {
			// rule (3) then rule (8) on the derived triple
			found = true
			return false
		}
		if (t.P == rdfs.Domain || t.P == rdfs.Range) && t.S == a { // rule (10)
			found = true
			return false
		}
		if t.P == rdfs.SubPropertyOf && t.S != t.O && (t.S == a || t.O == a) { // rule (11)
			found = true
			return false
		}
		return true
	})
	return found
}

// reflexiveScDerivable reports whether (a, sc, a) follows by rules
// (12)/(13) from g without the loop itself. Rule (12) also applies to
// *derived* type triples (rules (5)/(6)/(7)), none of which depend on the
// loop being removed, so derived type objects are checked too.
func (m *minimizer) reflexiveScDerivable(a term.Term) bool {
	found := false
	loop := graph.T(a, rdfs.SubClassOf, a)
	doms := m.g.WithPredicate(rdfs.Domain)
	ranges := m.g.WithPredicate(rdfs.Range)
	m.g.Each(func(t graph.Triple) bool {
		if t == loop {
			return true
		}
		if (t.P == rdfs.Domain || t.P == rdfs.Range || t.P == rdfs.Type) && t.O == a { // rule (12)
			found = true
			return false
		}
		if t.P == rdfs.SubClassOf && t.S != t.O && (t.S == a || t.O == a) { // rule (13)
			found = true
			return false
		}
		// Derived (x, type, a) via rule (5): an asserted type object
		// sc-reaching a.
		if t.P == rdfs.Type && m.scDag.Reaches(t.O, a) {
			found = true
			return false
		}
		// Derived (x, type, a) via rules (6)/(7): a dom/range triple
		// whose class sc-reaches a (or is a), applied to the plain
		// triple t.
		if !rdfs.IsVocabulary(t.P) {
			for _, dm := range doms {
				if (dm.O == a || m.scDag.Reaches(dm.O, a)) &&
					(t.P == dm.S || m.spDag.Reaches(t.P, dm.S)) {
					found = true
					return false
				}
			}
			for _, rg := range ranges {
				if (rg.O == a || m.scDag.Reaches(rg.O, a)) &&
					(t.P == rg.S || m.spDag.Reaches(t.P, rg.S)) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
