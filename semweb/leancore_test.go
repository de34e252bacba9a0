package semweb_test

import (
	"context"
	"testing"

	"semwebdb/internal/gen"
	"semwebdb/semweb"
)

// TestNormalFormDropsRedundantIndividual drives the lean-core step
// through the facade: a blank individual copying a ground edge (x p y)
// is a subject of a p-edge into y in cl(D) but not in nf(D), so a
// query binding those subjects sees it only without the normal form.
func TestNormalFormDropsRedundantIndividual(t *testing.T) {
	d := gen.Individuals(60, 300, 1, true, 5)
	ind := d.NonGroundTriples()[0]
	B, T := semweb.Var("B"), semweb.Var("T")
	q := semweb.NewQuery().
		Head(semweb.T(B, semweb.IRI("urn:typedAs"), T)).
		Body(semweb.T(B, ind.P, ind.O), semweb.T(B, semweb.Type, T))
	blanks := func(opts ...semweb.Option) int {
		t.Helper()
		db, err := semweb.Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.AddGraph(d); err != nil {
			t.Fatal(err)
		}
		ans, err := db.Eval(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Len() == 0 {
			t.Fatal("empty answer: the individual's edge has no ground twin")
		}
		return len(ans.Graph().BlankNodes())
	}
	if n := blanks(); n != 0 {
		t.Fatalf("nf(D) answer binds %d blank individuals, want 0", n)
	}
	if n := blanks(semweb.WithoutNormalForm()); n != 1 {
		t.Fatalf("cl(D) answer binds %d blank individuals, want 1", n)
	}
}
