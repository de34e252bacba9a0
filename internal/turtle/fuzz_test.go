package turtle

import (
	"testing"
)

// FuzzParse feeds arbitrary documents to the Turtle parser. The
// invariant: the parser never panics, and every accepted document
// yields a graph of well-formed triples.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"# empty\n",
		"@prefix ex: <urn:ex:> .\nex:a ex:p ex:b .",
		"@prefix : <urn:d:> .\n:a :p :b , :c ; :q :d .",
		"<urn:a> a <urn:C> .",
		"_:x <urn:p> \"lit\"@en .",
		"<urn:a> <urn:p> \"x\"^^<urn:dt> .",
		"@prefix ex: <urn:ex:> .\nex:a ex:p [ ex:q ex:b ] .",
		"@prefix ex: <urn:ex:> .", // prefix only
		"@prefix ex <urn:ex:> .",  // missing colon
		"ex:a ex:p ex:b .",        // undeclared prefix
		"<urn:a> <urn:p> .",       // missing object
		"<urn:a> <urn:p> <urn:b>", // missing dot
		"@base <urn:base:> .\n<a> <p> <b> .",
		"<urn:a> <urn:p> \"unterminated ;",
		"\"s\" <urn:p> <urn:o> .",
		"@prefix ex: <urn:ex:> .\nex:a ex:p ex:b ; ; .",
		"\x00\xfe\xff",
		"<urn:a> <urn:p> 42 .",
		"<urn:a> <urn:p> \"\"\"long\nliteral\"\"\" .",
		"[ <urn:p> <urn:o> ] .", // bracketed subject, no predicate-object list
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(src)
		if err != nil {
			return
		}
		for _, tr := range g.Triples() {
			if !tr.WellFormed() {
				t.Fatalf("parser accepted ill-formed triple %s", tr)
			}
		}
	})
}
