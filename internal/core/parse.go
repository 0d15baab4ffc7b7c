package core

import (
	"olapdim/internal/constraint"
	"olapdim/internal/parser"
)

// ParseConstraint parses a single dimension constraint expression.
func ParseConstraint(src string) (constraint.Expr, error) {
	return parser.ParseConstraint(src)
}

// Parse builds a validated dimension schema from the text syntax of package
// parser (see DESIGN.md for the grammar). ParseSchema has already run
// every check of DimensionSchema.Validate.
func Parse(src string) (*DimensionSchema, error) {
	g, sigma, err := parser.ParseSchema(src)
	if err != nil {
		return nil, err
	}
	return &DimensionSchema{G: g, Sigma: sigma}, nil
}

// Format renders the dimension schema in the syntax accepted by Parse.
func (ds *DimensionSchema) Format() string {
	return parser.FormatSchema(ds.G, ds.Sigma)
}
