package turtle

import (
	"testing"

	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func iri(s string) term.Term { return term.NewIRI(s) }

func TestPrefixAndBasicTriples(t *testing.T) {
	g, err := Parse(`
@prefix ex: <http://ex.org/> .
ex:a ex:p ex:b .
ex:a ex:q "lit" .
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("parsed %d triples, want 2", g.Len())
	}
	if !g.Has(graph.T(iri("http://ex.org/a"), iri("http://ex.org/p"), iri("http://ex.org/b"))) {
		t.Error("prefixed triple missing")
	}
}

func TestSPARQLStylePrefix(t *testing.T) {
	g, err := Parse(`
PREFIX ex: <http://ex.org/>
ex:a ex:p ex:b .
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("parsed %d, want 1", g.Len())
	}
}

func TestAKeywordAndLists(t *testing.T) {
	g, err := Parse(`
@prefix ex: <http://ex.org/> .
ex:picasso a ex:Painter ;
    ex:paints ex:guernica , ex:demoiselles ;
    ex:name "Pablo" .
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("parsed %d triples, want 4:\n%v", g.Len(), g)
	}
	if !g.Has(graph.T(iri("http://ex.org/picasso"), rdfs.Type, iri("http://ex.org/Painter"))) {
		t.Error("'a' keyword not mapped to rdf:type")
	}
	if !g.Has(graph.T(iri("http://ex.org/picasso"), iri("http://ex.org/paints"), iri("http://ex.org/demoiselles"))) {
		t.Error("object list member missing")
	}
}

func TestBlankNodes(t *testing.T) {
	g, err := Parse(`
@prefix ex: <http://ex.org/> .
_:x ex:p ex:b .
ex:a ex:q _:x .
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.BlankNodes()) != 1 {
		t.Fatalf("blank node labels must unify: %v", g.BlankNodeList())
	}
}

func TestBlankNodePropertyList(t *testing.T) {
	g, err := Parse(`
@prefix ex: <http://ex.org/> .
ex:a ex:knows [ ex:name "Bob" ; ex:age 42 ] .
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("parsed %d, want 3:\n%v", g.Len(), g)
	}
	if len(g.BlankNodes()) != 1 {
		t.Fatalf("anonymous node count = %d", len(g.BlankNodes()))
	}

	// As a subject, a non-empty "[ … ]" may stand alone (Turtle 1.1
	// triples ::= blankNodePropertyList predicateObjectList?).
	for src, want := range map[string]int{
		`[ <urn:p> <urn:o> ] .`:                  1,
		`[ <urn:p> <urn:o> ; <urn:q> <urn:r> ].`: 2,
		`[ <urn:p> <urn:o> ] <urn:q> <urn:r> .`:  2,
	} {
		g, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if g.Len() != want || len(g.BlankNodes()) != 1 {
			t.Fatalf("%s: parsed %d triples over %d blanks, want %d over 1:\n%v",
				src, g.Len(), len(g.BlankNodes()), want, g)
		}
		for _, tr := range g.Triples() {
			if !tr.S.IsBlank() {
				t.Fatalf("%s: triple %v does not have the blank subject", src, tr)
			}
		}
	}
}

func TestLiteralForms(t *testing.T) {
	g, err := Parse(`
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:p "plain" .
ex:a ex:p "tagged"@en .
ex:a ex:p "typed"^^xsd:token .
ex:a ex:p "typed2"^^<http://dt> .
ex:a ex:p 42 .
ex:a ex:p -7 .
ex:a ex:p 3.14 .
ex:a ex:p true .
ex:a ex:p false .
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []term.Term{
		term.NewLiteral("plain"),
		term.NewLangLiteral("tagged", "en"),
		term.NewTypedLiteral("typed", xsd+"token"),
		term.NewTypedLiteral("typed2", "http://dt"),
		term.NewTypedLiteral("42", xsd+"integer"),
		term.NewTypedLiteral("-7", xsd+"integer"),
		term.NewTypedLiteral("3.14", xsd+"decimal"),
		term.NewTypedLiteral("true", xsd+"boolean"),
		term.NewTypedLiteral("false", xsd+"boolean"),
	}
	for _, w := range want {
		if !g.Has(graph.T(iri("http://ex.org/a"), iri("http://ex.org/p"), w)) {
			t.Errorf("missing literal %v", w)
		}
	}
}

func TestBaseDirective(t *testing.T) {
	g, err := Parse(`
@base <http://ex.org/> .
@prefix ex: <http://ex.org/> .
<a> ex:p <b> .
`)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(graph.T(iri("http://ex.org/a"), iri("http://ex.org/p"), iri("http://ex.org/b"))) {
		t.Fatalf("base not applied:\n%v", g)
	}
}

func TestDotInsideLocalName(t *testing.T) {
	g, err := Parse(`
@prefix ex: <http://ex.org/> .
ex:v1.2 ex:p ex:b .
`)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(graph.T(iri("http://ex.org/v1.2"), iri("http://ex.org/p"), iri("http://ex.org/b"))) {
		t.Fatalf("dotted local name wrong:\n%v", g)
	}
}

func TestParseErrors(t *testing.T) {
	corpus := []string{
		`ex:a ex:p ex:b .`,                                      // undeclared prefix
		`@prefix ex: <http://e> ex:a ex:p ex:b .`,               // missing dot after prefix
		`@prefix ex: <http://e> .` + "\n" + `ex:a ex:p .`,       // missing object
		`@prefix ex: <http://e> .` + "\n" + `ex:a ex:p ex:b`,    // missing final dot
		`@prefix ex: <http://e> .` + "\n" + `ex:a ex:p (1 2) .`, // collections unsupported
		`@prefix ex: <http://e> .` + "\n" + `ex:a ex:p "unterminated .`,
		`@prefix ex: <http://e> .` + "\n" + `ex:a ex:p [ ex:q ex:r .`, // unterminated bnode list
		`@prefix ex: <http://e> .` + "\n" + `"lit" ex:p ex:b .`,       // literal subject
		`@prefix ex: <http://e> .` + "\n" + `ex:a ex:p "x"@ .`,        // empty lang
		`[] .`, // an empty "[]" subject needs a predicate-object list
	}
	for i, src := range corpus {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: malformed turtle accepted:\n%s", i, src)
		}
	}
}

func TestFigure1ArtExample(t *testing.T) {
	// The paper's Fig. 1 schema in Turtle.
	g, err := Parse(`
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix art: <http://ex.org/art/> .

art:sculptor rdfs:subClassOf art:artist .
art:painter rdfs:subClassOf art:artist .
art:paints rdfs:subPropertyOf art:creates .
art:sculpts rdfs:subPropertyOf art:creates .
art:creates rdfs:domain art:artist ;
            rdfs:range art:artifact .
art:exhibited rdfs:domain art:artifact ;
              rdfs:range art:museum .
art:picasso art:paints art:guernica .
art:guernica art:exhibited art:reinasofia .
art:reinasofia a art:museum .
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 11 {
		t.Fatalf("Fig. 1 graph has %d triples, want 11", g.Len())
	}
	if !g.Has(graph.T(iri("http://ex.org/art/creates"), rdfs.Domain, iri("http://ex.org/art/artist"))) {
		t.Error("domain triple via ';' missing")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse must panic")
		}
	}()
	MustParse("garbage !!!")
}
