// Package turtle implements a parser for a practical subset of the
// Turtle RDF syntax, sufficient for authoring the examples and test
// fixtures of this repository by hand:
//
//   - @prefix / PREFIX directives and prefixed names (pfx:local)
//   - @base / BASE directives (prefix concatenation only, no RFC 3986
//     resolution)
//   - the 'a' keyword for rdf:type
//   - predicate-object lists (';') and object lists (',')
//   - blank node labels (_:x) and anonymous blank node property lists
//     ([ p o ; … ])
//   - string literals with language tags and datatypes, and the integer,
//     decimal and boolean shorthands
//
// RDF collections "( … )" and multi-line strings are not supported and
// produce parse errors.
package turtle

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

const xsd = "http://www.w3.org/2001/XMLSchema#"

// ParseError reports a Turtle syntax error.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("turtle: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses a Turtle document into a graph.
func Parse(src string) (*graph.Graph, error) {
	if !utf8.ValidString(src) {
		// Turtle documents are UTF-8 by definition; raw invalid bytes
		// would decay to U+FFFD on serialization, breaking round trips.
		return nil, &ParseError{Line: 1, Col: 1, Msg: "invalid UTF-8"}
	}
	p := &parser{
		src:      src,
		line:     1,
		col:      1,
		g:        graph.New(),
		prefixes: map[string]string{},
	}
	if err := p.document(); err != nil {
		return nil, err
	}
	return p.g, nil
}

// MustParse parses and panics on error; for fixtures.
func MustParse(src string) *graph.Graph {
	g, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return g
}

type parser struct {
	src       string
	pos       int
	line, col int
	g         *graph.Graph
	prefixes  map[string]string
	base      string
	anonCount int
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool  { return p.pos >= len(p.src) }
func (p *parser) peek() byte { return p.src[p.pos] }

func (p *parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

func (p *parser) skipWS() {
	for !p.eof() {
		c := p.peek()
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.advance()
			continue
		}
		if c == '#' {
			for !p.eof() && p.peek() != '\n' {
				p.advance()
			}
			continue
		}
		return
	}
}

func (p *parser) document() error {
	for {
		p.skipWS()
		if p.eof() {
			return nil
		}
		if err := p.statement(); err != nil {
			return err
		}
	}
}

func (p *parser) statement() error {
	if p.hasKeyword("@prefix") || p.hasKeyword("PREFIX") {
		return p.prefixDirective()
	}
	if p.hasKeyword("@base") || p.hasKeyword("BASE") {
		return p.baseDirective()
	}
	return p.triples()
}

// hasKeyword reports whether the input at the cursor starts with the
// keyword followed by whitespace (case-sensitive for '@' forms,
// case-insensitive for SPARQL-style forms).
func (p *parser) hasKeyword(kw string) bool {
	if p.pos+len(kw) > len(p.src) {
		return false
	}
	chunk := p.src[p.pos : p.pos+len(kw)]
	if kw[0] == '@' {
		if chunk != kw {
			return false
		}
	} else if !strings.EqualFold(chunk, kw) {
		return false
	}
	if p.pos+len(kw) == len(p.src) {
		return true
	}
	c := p.src[p.pos+len(kw)]
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '<'
}

func (p *parser) consumeKeyword(kw string) {
	for i := 0; i < len(kw); i++ {
		p.advance()
	}
}

func (p *parser) prefixDirective() error {
	sparqlForm := p.peek() != '@'
	if sparqlForm {
		p.consumeKeyword("PREFIX")
	} else {
		p.consumeKeyword("@prefix")
	}
	p.skipWS()
	// prefix name, possibly empty, up to ':'.
	start := p.pos
	for !p.eof() && p.peek() != ':' {
		if c := p.peek(); c == ' ' || c == '\t' || c == '\n' {
			return p.errf("whitespace in prefix name")
		}
		p.advance()
	}
	if p.eof() {
		return p.errf("expected ':' in prefix directive")
	}
	name := p.src[start:p.pos]
	p.advance() // ':'
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes[name] = iri
	p.skipWS()
	if !sparqlForm {
		if p.eof() || p.peek() != '.' {
			return p.errf("@prefix directive must end with '.'")
		}
		p.advance()
	}
	return nil
}

func (p *parser) baseDirective() error {
	sparqlForm := p.peek() != '@'
	if sparqlForm {
		p.consumeKeyword("BASE")
	} else {
		p.consumeKeyword("@base")
	}
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.base = iri
	p.skipWS()
	if !sparqlForm {
		if p.eof() || p.peek() != '.' {
			return p.errf("@base directive must end with '.'")
		}
		p.advance()
	}
	return nil
}

func (p *parser) triples() error {
	p.skipWS()
	bracketed := !p.eof() && p.peek() == '['
	before := p.g.Len()
	subj, err := p.subject()
	if err != nil {
		return err
	}
	p.skipWS()
	// triples ::= subject predicateObjectList
	//           | blankNodePropertyList predicateObjectList?
	// A non-empty "[ p o ]" subject already asserted triples about its
	// fresh node, so it may end the statement; an empty "[]" is a
	// plain subject and needs the list.
	standalone := bracketed && p.g.Len() > before && !p.eof() && p.peek() == '.'
	if !standalone {
		if err := p.predicateObjectList(subj); err != nil {
			return err
		}
		p.skipWS()
	}
	if p.eof() || p.peek() != '.' {
		return p.errf("expected '.' after triples")
	}
	p.advance()
	return nil
}

func (p *parser) predicateObjectList(subj term.Term) error {
	for {
		p.skipWS()
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			p.skipWS()
			obj, err := p.object()
			if err != nil {
				return err
			}
			t := graph.T(subj, pred, obj)
			if !t.WellFormed() {
				return p.errf("ill-formed triple %s", t)
			}
			p.g.MustAdd(t)
			p.skipWS()
			if !p.eof() && p.peek() == ',' {
				p.advance()
				continue
			}
			break
		}
		if !p.eof() && p.peek() == ';' {
			p.advance()
			p.skipWS()
			// Allow trailing ';' before '.' or ']'.
			if !p.eof() && (p.peek() == '.' || p.peek() == ']') {
				return nil
			}
			continue
		}
		return nil
	}
}

func (p *parser) subject() (term.Term, error) {
	p.skipWS()
	if p.eof() {
		return term.Term{}, p.errf("expected subject")
	}
	switch {
	case p.peek() == '<':
		iri, err := p.iriRef()
		if err != nil {
			return term.Term{}, err
		}
		return term.NewIRI(iri), nil
	case strings.HasPrefix(p.src[p.pos:], "_:"):
		return p.blankLabel()
	case p.peek() == '[':
		return p.blankNodePropertyList()
	case p.peek() == '(':
		return term.Term{}, p.errf("RDF collections are not supported by this subset")
	default:
		return p.prefixedName()
	}
}

func (p *parser) predicate() (term.Term, error) {
	if p.eof() {
		return term.Term{}, p.errf("expected predicate")
	}
	// The 'a' keyword.
	if p.peek() == 'a' {
		if p.pos+1 == len(p.src) || isWS(p.src[p.pos+1]) {
			p.advance()
			return rdfs.Type, nil
		}
	}
	if p.peek() == '<' {
		iri, err := p.iriRef()
		if err != nil {
			return term.Term{}, err
		}
		return term.NewIRI(iri), nil
	}
	return p.prefixedName()
}

func (p *parser) object() (term.Term, error) {
	if p.eof() {
		return term.Term{}, p.errf("expected object")
	}
	switch {
	case p.peek() == '<':
		iri, err := p.iriRef()
		if err != nil {
			return term.Term{}, err
		}
		return term.NewIRI(iri), nil
	case strings.HasPrefix(p.src[p.pos:], "_:"):
		return p.blankLabel()
	case p.peek() == '[':
		return p.blankNodePropertyList()
	case p.peek() == '(':
		return term.Term{}, p.errf("RDF collections are not supported by this subset")
	case p.peek() == '"':
		return p.stringLiteral()
	case p.peek() == '+' || p.peek() == '-' || isDigitB(p.peek()):
		return p.numericLiteral()
	case p.hasKeyword("true"):
		p.consumeKeyword("true")
		return term.NewTypedLiteral("true", xsd+"boolean"), nil
	case p.hasKeyword("false"):
		p.consumeKeyword("false")
		return term.NewTypedLiteral("false", xsd+"boolean"), nil
	default:
		return p.prefixedName()
	}
}

func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigitB(c byte) bool { return c >= '0' && c <= '9' }

func (p *parser) iriRef() (string, error) {
	if p.eof() || p.peek() != '<' {
		return "", p.errf("expected '<'")
	}
	p.advance()
	var b strings.Builder
	for {
		if p.eof() {
			return "", p.errf("unterminated IRI")
		}
		c := p.advance()
		if c == '>' {
			iri := b.String()
			if p.base != "" && !strings.Contains(iri, ":") {
				iri = p.base + iri
			}
			return iri, nil
		}
		if c <= 0x20 {
			return "", p.errf("whitespace in IRI")
		}
		b.WriteByte(c)
	}
}

func (p *parser) blankLabel() (term.Term, error) {
	p.advance() // '_'
	p.advance() // ':'
	start := p.pos
	for !p.eof() && isNameChar(p.peek()) {
		p.advance()
	}
	label := p.src[start:p.pos]
	if label == "" {
		return term.Term{}, p.errf("empty blank node label")
	}
	return term.NewBlank(label), nil
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '-'
}

// blankNodePropertyList parses "[ p o ; … ]" and returns the fresh blank.
func (p *parser) blankNodePropertyList() (term.Term, error) {
	p.advance() // '['
	p.anonCount++
	node := term.NewBlank(fmt.Sprintf("anon%d", p.anonCount))
	p.skipWS()
	if !p.eof() && p.peek() == ']' { // empty: just a fresh node
		p.advance()
		return node, nil
	}
	if err := p.predicateObjectList(node); err != nil {
		return term.Term{}, err
	}
	p.skipWS()
	if p.eof() || p.peek() != ']' {
		return term.Term{}, p.errf("expected ']'")
	}
	p.advance()
	return node, nil
}

func (p *parser) prefixedName() (term.Term, error) {
	start := p.pos
	for !p.eof() && p.peek() != ':' && isNameChar(p.peek()) {
		p.advance()
	}
	if p.eof() || p.peek() != ':' {
		return term.Term{}, p.errf("expected prefixed name")
	}
	prefix := p.src[start:p.pos]
	p.advance() // ':'
	ns, ok := p.prefixes[prefix]
	if !ok {
		return term.Term{}, p.errf("undeclared prefix %q", prefix)
	}
	lstart := p.pos
	for !p.eof() && (isNameChar(p.peek()) || p.peek() == '.') {
		// A '.' ends the local name if followed by whitespace/EOF (it is
		// then the statement terminator).
		if p.peek() == '.' {
			if p.pos+1 >= len(p.src) || !isNameChar(p.src[p.pos+1]) {
				break
			}
		}
		p.advance()
	}
	local := p.src[lstart:p.pos]
	return term.NewIRI(ns + local), nil
}

func (p *parser) stringLiteral() (term.Term, error) {
	p.advance() // '"'
	var b strings.Builder
	for {
		if p.eof() {
			return term.Term{}, p.errf("unterminated string")
		}
		c := p.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			if p.eof() {
				return term.Term{}, p.errf("dangling escape")
			}
			e := p.advance()
			switch e {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return term.Term{}, p.errf("unsupported escape \\%c", e)
			}
			continue
		}
		b.WriteByte(c)
	}
	lex := b.String()
	if !p.eof() && p.peek() == '@' {
		p.advance()
		start := p.pos
		for !p.eof() && (isNameChar(p.peek())) {
			p.advance()
		}
		tag := p.src[start:p.pos]
		if tag == "" {
			return term.Term{}, p.errf("empty language tag")
		}
		return term.NewLangLiteral(lex, tag), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.advance()
		p.advance()
		var dt term.Term
		var err error
		if !p.eof() && p.peek() == '<' {
			iri, e := p.iriRef()
			if e != nil {
				return term.Term{}, e
			}
			dt = term.NewIRI(iri)
		} else {
			dt, err = p.prefixedName()
			if err != nil {
				return term.Term{}, err
			}
		}
		return term.NewTypedLiteral(lex, dt.Value), nil
	}
	return term.NewLiteral(lex), nil
}

func (p *parser) numericLiteral() (term.Term, error) {
	start := p.pos
	if p.peek() == '+' || p.peek() == '-' {
		p.advance()
	}
	digits := 0
	for !p.eof() && isDigitB(p.peek()) {
		p.advance()
		digits++
	}
	isDecimal := false
	if !p.eof() && p.peek() == '.' {
		// Only a decimal if digits follow; otherwise it is the statement
		// terminator.
		if p.pos+1 < len(p.src) && isDigitB(p.src[p.pos+1]) {
			isDecimal = true
			p.advance()
			for !p.eof() && isDigitB(p.peek()) {
				p.advance()
			}
		}
	}
	if digits == 0 {
		return term.Term{}, p.errf("malformed number")
	}
	lex := p.src[start:p.pos]
	if isDecimal {
		return term.NewTypedLiteral(lex, xsd+"decimal"), nil
	}
	return term.NewTypedLiteral(lex, xsd+"integer"), nil
}
