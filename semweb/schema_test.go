package semweb_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"semwebdb/semweb"
)

// schemaFixture builds a schema-heavy database: a subclass chain with
// typed members plus a property hierarchy with domain/range typing.
func schemaFixture(t *testing.T, opts ...semweb.Option) *semweb.DB {
	t.Helper()
	db, err := semweb.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	g := semweb.NewGraph()
	for i := 0; i < 120; i++ {
		g.Add(semweb.T(
			semweb.IRI(fmt.Sprintf("urn:t:c%d", i)), semweb.SubClassOf,
			semweb.IRI(fmt.Sprintf("urn:t:c%d", i+1))))
		g.Add(semweb.T(
			semweb.IRI(fmt.Sprintf("urn:t:m%d", i)), semweb.Type,
			semweb.IRI(fmt.Sprintf("urn:t:c%d", i))))
	}
	for i := 0; i < 40; i++ {
		g.Add(semweb.T(
			semweb.IRI(fmt.Sprintf("urn:t:p%d", i)), semweb.SubPropertyOf,
			semweb.IRI(fmt.Sprintf("urn:t:p%d", i+1))))
		g.Add(semweb.T(
			semweb.IRI(fmt.Sprintf("urn:t:x%d", i)),
			semweb.IRI(fmt.Sprintf("urn:t:p%d", i)),
			semweb.IRI(fmt.Sprintf("urn:t:y%d", i))))
	}
	g.Add(semweb.T(semweb.IRI("urn:t:p40"), semweb.Domain, semweb.IRI("urn:t:D")))
	g.Add(semweb.T(semweb.IRI("urn:t:p40"), semweb.Range, semweb.IRI("urn:t:R")))
	if err := db.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestWithParallelismSameAnswers checks the facade operations that
// saturate the closure — Closure, Entails, Infers, Eval and
// Fingerprint — against answers fixed by the RDFS rules, on a default
// database and on one opened WithoutNormalForm. The name is kept from
// when it compared closure worker counts; there is one engine now.
func TestWithParallelismSameAnswers(t *testing.T) {
	ctx := context.Background()
	db := schemaFixture(t)
	noNF := schemaFixture(t, semweb.WithoutNormalForm())

	cl, err := db.Closure(ctx)
	if err != nil {
		t.Fatal(err)
	}
	clNoNF, err := noNF.Closure(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !cl.Equal(clNoNF) {
		t.Fatalf("Closure depends on the normal-form option: %d vs %d triples", cl.Len(), clNoNF.Len())
	}
	if !db.Graph().SubgraphOf(cl) {
		t.Fatal("Closure does not contain the database")
	}
	for _, tr := range []semweb.Triple{
		semweb.T(semweb.IRI("urn:t:c0"), semweb.SubClassOf, semweb.IRI("urn:t:c120")),     // rule (4)
		semweb.T(semweb.IRI("urn:t:m0"), semweb.Type, semweb.IRI("urn:t:c120")),           // rule (5)
		semweb.T(semweb.IRI("urn:t:x0"), semweb.IRI("urn:t:p40"), semweb.IRI("urn:t:y0")), // rule (3)
		semweb.T(semweb.IRI("urn:t:x0"), semweb.Type, semweb.IRI("urn:t:D")),              // rule (6)
		semweb.T(semweb.IRI("urn:t:y0"), semweb.Type, semweb.IRI("urn:t:R")),              // rule (7)
	} {
		if !cl.Has(tr) {
			t.Fatalf("Closure misses %v", tr)
		}
	}

	h := semweb.NewGraph(semweb.T(semweb.IRI("urn:t:m0"), semweb.Type, semweb.IRI("urn:t:c100")))
	for _, d := range []*semweb.DB{db, noNF} {
		if ok, err := d.Entails(ctx, h); err != nil || !ok {
			t.Fatalf("Entails(m0 type c100) = %v, %v; want true", ok, err)
		}
		if !d.Infers(semweb.T(semweb.IRI("urn:t:m5"), semweb.Type, semweb.IRI("urn:t:c80"))) {
			t.Fatal("Infers misses a subclass-lifted typing")
		}
		if d.Infers(semweb.T(semweb.IRI("urn:t:m80"), semweb.Type, semweb.IRI("urn:t:c5"))) {
			t.Fatal("Infers lifts a typing down the subclass chain")
		}
	}

	// Members m0..m115 are typed c0..c115, each lifted up to c115.
	X := semweb.Var("X")
	q := semweb.NewQuery().
		Head(semweb.T(X, semweb.IRI("urn:t:deep"), semweb.IRI("urn:t:yes"))).
		Body(semweb.T(X, semweb.Type, semweb.IRI("urn:t:c115")))
	ans, err := db.Eval(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ans.Graph().Triples()); n != 116 {
		t.Fatalf("unexpected answer size %d, want 116", n)
	}

	// D ≡ cl(D), so both have the same equivalence certificate.
	fpDB, err := db.Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fpCl, err := semweb.Fingerprint(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if fpDB != fpCl {
		t.Fatal("Fingerprint(D) differs from Fingerprint(cl(D))")
	}
}

// TestWithParallelismCancellation: a cancelled context aborts the
// saturating operations with ErrCancelled. The name is kept from when
// it exercised the parallel engine.
func TestWithParallelismCancellation(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := schemaFixture(t).Closure(dead); !errors.Is(err, semweb.ErrCancelled) {
		t.Fatalf("cancelled Closure: err = %v, want ErrCancelled", err)
	}
	if _, err := schemaFixture(t).Eval(dead, semweb.Identity()); !errors.Is(err, semweb.ErrCancelled) {
		t.Fatalf("cancelled Eval: err = %v, want ErrCancelled", err)
	}
}
