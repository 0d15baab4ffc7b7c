package parser

import (
	"fmt"
	"strings"

	"olapdim/internal/constraint"
	"olapdim/internal/schema"
)

// ParseSchema parses a line-oriented dimension schema description:
//
//	schema <name>                 # optional, at most once
//	category <c> [<c> ...]        # optional; edges imply categories
//	edge <c> -> <c'> [-> <c''>]   # chains add one edge per arrow
//	constraint <expression>
//	# comment
//
// The hierarchy schema and every constraint are validated; the constraints
// keep their source order. Package core wraps this as core.Parse, returning
// a core.DimensionSchema.
func ParseSchema(src string) (*schema.Schema, []constraint.Expr, error) {
	g := schema.New("")
	var sigma []constraint.Expr
	name := ""
	for lineStart := 0; lineStart <= len(src); {
		line := src[lineStart:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		pos := lineStart
		lineStart += len(line) + 1
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		word, rest := splitWord(line)
		fail := func(msg string, args ...any) error {
			return &Error{Src: src, Pos: pos, Msg: fmt.Sprintf(msg, args...)}
		}
		switch word {
		case "schema":
			if name != "" {
				return nil, nil, fail("duplicate schema declaration")
			}
			name = strings.TrimSpace(rest)
			if name == "" {
				return nil, nil, fail("schema declaration needs a name")
			}
		case "category":
			for _, c := range strings.Fields(rest) {
				if err := g.AddCategory(c); err != nil {
					return nil, nil, fail("%v", err)
				}
			}
		case "edge":
			c, tail, more := strings.Cut(rest, "->")
			if !more {
				return nil, nil, fail("edge declaration needs at least one '->'")
			}
			c = strings.TrimSpace(c)
			for more {
				var parent string
				parent, tail, more = strings.Cut(tail, "->")
				parent = strings.TrimSpace(parent)
				if err := g.AddEdge(c, parent); err != nil {
					return nil, nil, fail("%v", err)
				}
				c = parent
			}
		case "constraint":
			e, err := ParseConstraint(rest)
			if err != nil {
				return nil, nil, err
			}
			sigma = append(sigma, e)
		default:
			return nil, nil, fail("unknown declaration %q (want schema, category, edge or constraint)", word)
		}
	}

	// Name the schema so diagnostics mention it. A named schema lists
	// the categories below each category in category order.
	if name != "" {
		g.Rename(name)
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	for _, e := range sigma {
		if err := constraint.Validate(e, g); err != nil {
			return nil, nil, err
		}
	}
	return g, sigma, nil
}

func splitWord(line string) (word, rest string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line, ""
	}
	return line[:i], strings.TrimSpace(line[i:])
}

// FormatSchema renders a hierarchy schema and constraint set in the syntax
// accepted by ParseSchema, suitable for round-tripping.
func FormatSchema(g *schema.Schema, sigma []constraint.Expr) string {
	var b strings.Builder
	if g.Name() != "" {
		fmt.Fprintf(&b, "schema %s\n", g.Name())
	}
	fmt.Fprintf(&b, "category %s\n", strings.Join(g.SortedCategories(), " "))
	for _, c := range g.SortedCategories() {
		for _, p := range g.Out(c) {
			fmt.Fprintf(&b, "edge %s -> %s\n", c, p)
		}
	}
	for _, e := range sigma {
		fmt.Fprintf(&b, "constraint %s\n", e)
	}
	return b.String()
}
